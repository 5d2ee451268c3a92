"""The benchmark's workloads and the gate that checks their outputs.

Each workload is driven in *passes*: a pass is a fixed, seed-determined unit
of work (the same inputs every time), so work counters and output digests
are comparable between passes and between runs.  A run repeats passes until
its time budget is spent and always finishes the pass it started.

Timing is closed-loop with one server in this process: an operation's
latency runs from the end of the previous operation (or the start of its
timed region) to its own completion.  Only the timed regions count towards
``ops_per_s``; input staging and output checking between them do not.
The end-to-end timings use each operation's fastest time over the run's
passes (:meth:`OpClock.best_latencies`), which filters out the spells in
which other tenants of a shared host slow every operation down.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
STUDY_FILE = ROOT / "examples" / "campaigns" / "mesh8x8_study.json"


#: CPUs this process may run on, before :func:`pin_quietest_cpu` narrows it
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
#: timings of a fixed loop per CPU probe; the CPU's speed is their minimum
CPU_PROBES = 3
#: fewest seconds between two CPU probes
REPIN_S = 0.25


def _spin() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(20000):
        total += value * value % 7
    return time.perf_counter() - started


def pin_quietest_cpu() -> None:
    """Move this process to the CPU that runs a fixed loop fastest right now.

    On a shared host each CPU has spells in which other tenants slow it
    down; the short ones often hit one CPU and not the other.  Probing
    every CPU and pinning to the quickest keeps operations off a CPU that
    is in such a spell.  A probe costs a few milliseconds.
    """
    if len(CPUS) < 2:
        return
    speeds = []
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speeds.append((min(_spin() for _ in range(CPU_PROBES)), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
    except OSError:
        os.sched_setaffinity(0, CPUS)


class SetupDone(Exception):
    """Raised by a set-up probe when its first timed operation would start."""


class OpClock:
    """Times closed-loop operations inside timed regions.

    The first region start ends set-up.  With ``probe`` set it raises
    :class:`SetupDone` instead, which is how a set-up probe process stops
    exactly where a real run would start timing.  ``tracer`` (if any) is
    switched on only inside regions, so traced numbers cover timed work.
    At most every :data:`REPIN_S` seconds, at a region start or (untraced)
    between two operations, the process moves to the quietest CPU; that
    probe is not timed.
    """

    def __init__(self, probe: bool = False) -> None:
        self.probe = probe
        self.tracer = None
        self.latencies: List[float] = []
        self.pass_ends: List[int] = []
        self.timed_s = 0.0
        self.setup_end: Optional[float] = None
        self._last = 0.0
        self._pinned_at = float("-inf")

    @contextmanager
    def region(self):
        start = time.perf_counter()
        if self.setup_end is None:
            self.setup_end = start
            if self.probe:
                raise SetupDone(start)
        start += self._repin(start)
        self._last = start
        if self.tracer is not None:
            self.tracer.active = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            self.timed_s += time.perf_counter() - start

    def op_done(self) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self._last)
        # a probe inside a traced span would count as that span's time
        probe_s = self._repin(now) if self.tracer is None else 0.0
        self.timed_s -= probe_s
        self._last = now + probe_s

    def _repin(self, now: float) -> float:
        """Probe and pin if :data:`REPIN_S` has passed; return the time it took."""
        if now - self._pinned_at < REPIN_S:
            return 0.0
        pin_quietest_cpu()
        self._pinned_at = time.perf_counter()
        return self._pinned_at - now

    def end_pass(self) -> None:
        """Mark the end of a pass's operations in :attr:`latencies`."""
        self.pass_ends.append(len(self.latencies))

    def best_latencies(self) -> List[float]:
        """Each operation's fastest time over the identical passes.

        Passes repeat the same operations in the same order, so operation
        ``i`` of every pass is the same work; its fastest time is the one
        least disturbed by other load on the host.
        """
        bounds = [0] + self.pass_ends
        passes = [self.latencies[start:end] for start, end in zip(bounds, bounds[1:])]
        if not passes or len({len(times) for times in passes}) != 1:
            raise RuntimeError(f"passes differ in operation count: "
                               f"{[len(times) for times in passes]}")
        return [min(times) for times in zip(*passes)]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def payload_digest(payload: Dict) -> str:
    """Digest of a job payload's canonical JSON (key order normalised)."""
    return sha256(json.dumps(payload, sort_keys=True))


def tree_bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        for folder, _, files in os.walk(path):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(folder, name))
                except OSError:
                    pass
    return total


class Gate:
    """Counts failed operations: failed files, digest mismatches, referee issues.

    ``pinned`` is the expected pass digest (known for the default seed only).
    Every pass is also compared with the first pass of the run, operation by
    operation, since passes repeat identical inputs.  The referee is the
    independent :func:`repro.core.validate.validate_mapping`, run once per
    distinct mapping the workload produced.
    """

    def __init__(self, pinned: Optional[str] = None) -> None:
        self.pinned = pinned
        self.reference: Optional[List[Optional[str]]] = None
        self.refereed: Dict[str, Tuple[str, ...]] = {}
        self.referee_calls = 0
        self.referee_s = 0.0
        self.reasons: Dict[str, int] = {}
        self.digests: List[str] = []

    def _fail(self, reason: str, count: int = 1) -> int:
        self.reasons[reason] = self.reasons.get(reason, 0) + count
        return count

    def referee(self, payload: Dict, digest: str, use_cases) -> Tuple[str, ...]:
        """Issue kinds the referee finds in a payload's mapping.

        Memoised on the payload's ``digest`` and the use cases' content hash.
        """
        if not payload.get("mapped") or "mapping" not in payload:
            return ()
        key = digest + use_cases.content_hash()
        if key not in self.refereed:
            from repro.core.validate import validate_mapping
            from repro.exceptions import ReproError
            from repro.io.serialization import mapping_fingerprint, mapping_result_from_dict

            started = time.perf_counter()
            try:
                result = mapping_result_from_dict(payload["mapping"])
            except (ReproError, KeyError, TypeError, ValueError):
                kinds: Tuple[str, ...] = ("unreadable",)
            else:
                kinds = tuple(issue.kind for issue in validate_mapping(result, use_cases).issues)
                if payload.get("fingerprint") not in (None, mapping_fingerprint(result)):
                    kinds += ("fingerprint",)
            self.referee_s += time.perf_counter() - started
            self.referee_calls += 1
            self.refereed[key] = kinds
        return self.refereed[key]

    def check_pass(self, op_digests: List[Optional[str]], refereed_bad: List[bool],
                   extra: str = "") -> Tuple[str, int]:
        """Failed operations of one pass; returns (pass digest, failures).

        ``op_digests[i]`` is ``None`` when operation ``i`` left no output
        (its file settled in ``failed/``); ``extra`` folds pass-level
        outputs such as a campaign report into the pass digest.
        """
        digest = sha256(json.dumps([op_digests, extra]))
        self.digests.append(digest)
        if self.reference is None:
            self.reference = list(op_digests)
        if self.pinned is not None and digest != self.pinned:
            return digest, self._fail("pinned digest mismatch", len(op_digests))
        failed = 0
        for index, (output, bad) in enumerate(zip(op_digests, refereed_bad)):
            if output is None:
                failed += self._fail("failed/ file")
            elif bad:
                failed += self._fail("validate_mapping issue")
            elif output != self.reference[index]:
                failed += self._fail("output differs between passes")
        return digest, failed


class Workload:
    """A seeded workload run in identical passes (see module docstring)."""

    name = ""

    def __init__(self, seed: int, work: Path, clock: OpClock,
                 pinned: Optional[str] = None) -> None:
        self.seed = seed
        self.work = work
        self.clock = clock
        self.gate = Gate(pinned)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.disk_bytes: Optional[int] = None
        self.mapping_cost: Optional[float] = None

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        """Run one pass: stage inputs, time the operations, check outputs."""
        raise NotImplementedError

    def _settle(self, op_digests, refereed_bad, cost: float, disk: int,
                extra: str = "") -> None:
        _, failed = self.gate.check_pass(op_digests, refereed_bad, extra)
        self.attempted += len(op_digests)
        self.failed += failed
        self.clock.end_pass()
        if self.passes == 0:
            self.disk_bytes = disk
            self.mapping_cost = cost
        self.passes += 1


# --------------------------------------------------------------------------- #
# serve_hits
# --------------------------------------------------------------------------- #
class ServeHits(Workload):
    """Resubmitted spread-10 design-flow files drained from a warm cache.

    Set-up drains one file per design through the same service, so every
    timed file is a cache hit.  An operation is one file, claim to settle.
    """

    name = "serve_hits"
    designs = 4
    files_per_pass = 24

    def prepare(self) -> None:
        from repro.jobs.service import JobDirectoryService
        from repro.jobs.spec import DesignFlowJob, UseCaseSource, job_to_dict

        self.sources = [
            UseCaseSource(generator={"kind": "spread", "use_case_count": 10,
                                     "seed": self.designs * self.seed + index})
            for index in range(self.designs)
        ]
        self.texts = [json.dumps(job_to_dict(DesignFlowJob(use_cases=source)))
                      for source in self.sources]
        self.inbox = self.work / "inbox"
        self.cache_dir = self.work / "cache"
        self.service = JobDirectoryService(self.inbox, workers=1, cache_dir=self.cache_dir)
        for index, text in enumerate(self.texts):
            (self.inbox / f"warm-{index:02d}.json").write_text(text)
        warm = self.service.run_once()
        if [record["status"] for record in warm] != ["done"] * self.designs:
            raise RuntimeError(f"cache warm-up failed: {warm}")
        self._clear_settled()
        self._designs: Dict[int, object] = {}
        self._payloads: Dict[str, Tuple[str, Dict]] = {}

    def _clear_settled(self) -> None:
        for folder in (self.service.done_dir, self.service.results_dir):
            for entry in folder.iterdir():
                entry.unlink()

    def _design(self, index: int):
        if index not in self._designs:
            self._designs[index] = self.sources[index].build()
        return self._designs[index]

    def run_pass(self) -> None:
        from repro.campaign.report import mapping_cost
        from repro.jobs.service import JobDirectoryService

        names = []
        for index in range(self.files_per_pass):
            name = f"p{self.passes:04d}-{index:03d}.json"
            (self.inbox / name).write_text(self.texts[index % self.designs])
            names.append(name)
        service, clock = self.service, self.clock

        def process_file(claimed):
            record = JobDirectoryService.process_file(service, claimed)
            clock.op_done()
            return record

        service.process_file = process_file
        try:
            with clock.region():
                records = service.run_once()
        finally:
            del service.process_file

        by_file = {record["file"]: record for record in records}
        op_digests, bad, cost = [], [], 0.0
        for index, name in enumerate(names):
            record = by_file.get(name)
            if record is None or record["status"] != "done":
                op_digests.append(None)
                bad.append(False)
                continue
            text = (self.inbox / record["results"]).read_text()
            key = sha256(text)
            if key not in self._payloads:
                envelopes = json.loads(text)
                payload = envelopes[0]["payload"] if len(envelopes) == 1 else {}
                self._payloads[key] = (payload_digest(payload), payload)
            digest, payload = self._payloads[key]
            design = self._design(index % self.designs)
            op_digests.append(digest)
            bad.append(bool(self.gate.referee(payload, digest, design))
                       or not payload.get("mapped"))
            cost += mapping_cost(payload.get("mapping", {}))
        disk = tree_bytes(self.inbox, self.cache_dir)
        self._clear_settled()
        self._settle(op_digests, bad, cost, disk)


# --------------------------------------------------------------------------- #
# mesh8x8_study
# --------------------------------------------------------------------------- #
class MeshStudy(Workload):
    """A cold run of the committed 8x8 study into a fresh out-dir.

    The seed replaces the recipes' generator seed 3 by ``seeds_per_pass``
    consecutive seeds from 3 + seeds_per_pass * seed, so that a pass maps
    several designs of each recipe and its time depends less on how hard
    one design happens to be.  An operation is one campaign cell, from the
    end of the previous cell to its settled record; the report reduction is
    timed but belongs to no cell.
    """

    name = "mesh8x8_study"
    recipe_seed = 3
    seeds_per_pass = 2

    def prepare(self) -> None:
        from repro.campaign.spec import CampaignSpec

        document = json.loads(STUDY_FILE.read_text())
        first = self.recipe_seed + self.seeds_per_pass * self.seed
        document["seeds"] = list(range(first, first + self.seeds_per_pass))
        self.spec = CampaignSpec.from_dict(document)
        self.sources = {cell.cell_id: cell.job.use_cases for cell in self.spec.expand()}
        self._designs: Dict[str, object] = {}

    def _design(self, source):
        key = json.dumps(source.to_dict(), sort_keys=True)
        if key not in self._designs:
            self._designs[key] = source.build()
        return self._designs[key]

    def run_pass(self) -> None:
        from repro.campaign.runner import CampaignRunner

        out = self.work / f"study-{self.passes:04d}"
        runner = CampaignRunner(out, workers=1)
        clock = self.clock

        def settle(cell, spec_hash, result):
            record = CampaignRunner._settle(runner, cell, spec_hash, result)
            clock.op_done()
            return record

        runner._settle = settle
        with clock.region():
            runner.run(self.spec)

        report_text = (out / "report.json").read_text()
        report = json.loads(report_text)
        op_digests, bad, cost = [], [], 0.0
        for cell in report["cells"]:
            envelope = json.loads(
                (runner.cache_dir / f"{cell['job_hash']}.json").read_text())
            payload = envelope["payload"]
            digest = payload_digest(payload)
            op_digests.append(digest)
            design = self._design(self.sources[cell["cell_id"]])
            issues = self.gate.referee(payload, digest, design)
            bad.append(bool(issues) or not payload.get("mapped")
                       or cell["outcome"].get("fingerprint") != payload.get("fingerprint"))
            cost += cell["outcome"].get("cost", 0.0)
        disk = tree_bytes(out)
        shutil.rmtree(out)
        self._settle(op_digests, bad, cost, disk, extra=sha256(report_text))


# --------------------------------------------------------------------------- #
# monitor_repair4x4
# --------------------------------------------------------------------------- #
def probe_script(rng: random.Random, design, mesh: Tuple[int, int],
                 events: int) -> List[Dict]:
    """Complete-state probe steps; every step differs from the one before.

    The script is a chain of six-step episodes on seeded links ``a``, ``b``
    and a seeded flow ``f`` re-characterised to 1.1-1.3x its design
    bandwidth: ``a`` down, ``b`` down, ``f`` up, ``b`` up, ``f`` reverted
    (the state of step one again), ``a`` up (healthy again).  So at most two
    links are down at a time, a third of the steps are traffic changes, and
    the two repeated states of each episode are cache hits by construction
    (the healthy one from the second episode on): the hit fraction is the
    same for every seed, while the links, flows and designs vary.
    """
    from repro.noc.topology import Topology

    links = sorted({(min(a, b), max(a, b)) for a, b in Topology.mesh(*mesh).links})
    flows = [(use_case.name, flow.source, flow.destination, flow.bandwidth)
             for use_case in design for flow in use_case.flows]

    def step(down, traffic):
        return {
            "failures": {"links": [[a, b] for a, b in down] + [[b, a] for a, b in down],
                         "switches": []},
            "traffic": traffic,
        }

    steps: List[Dict] = []
    while len(steps) < events:
        first, second = rng.sample(links, 2)
        name, source, destination, bandwidth = rng.choice(flows)
        override = [[name, source, destination, bandwidth * rng.choice((1.1, 1.2, 1.3))]]
        steps += [
            step([first], []),
            step([first, second], []),
            step([first, second], override),
            step([first], override),
            step([first], []),
            step([], []),
        ]
    return steps[:events]


class MonitorRepair(Workload):
    """Scripted link failures and traffic changes repaired through serve.

    Each pass runs ``designs`` rounds; a round provisions one seeded
    ``mesh4x4_spread24`` design on a fresh inbox, cache and monitor (a first
    poll of the healthy network computes the baseline, untimed) and then
    plays ``events`` probe steps.  An operation is one event: ``poll_once``
    plus the ``run_once`` that settles the enqueued repair job in ``done/``.
    """

    name = "monitor_repair4x4"
    designs = 8
    events = 12
    period_s = 5.0

    def prepare(self) -> None:
        from repro.gen.recipes import workload_recipe
        from repro.jobs.spec import UseCaseSource

        generator, self.mesh = workload_recipe("mesh4x4_spread24")
        self.rounds = []
        for index in range(self.designs):
            recipe = dict(generator)
            recipe["seed"] = generator["seed"] + self.designs * self.seed + index
            source = UseCaseSource(generator=recipe)
            design = source.build()
            rng = random.Random(self.designs * self.seed + index)
            self.rounds.append((source, design, probe_script(rng, design, self.mesh,
                                                             self.events)))
        self._current: Dict[str, object] = {}

    def _current_design(self, design, step: Dict):
        from repro.ops.events import apply_traffic

        key = design.content_hash() + json.dumps(step["traffic"])
        if key not in self._current:
            overrides = {(n, s, d): bw for n, s, d, bw in step["traffic"]}
            self._current[key] = apply_traffic(design, overrides)[0] if overrides else design
        return self._current[key]

    def run_pass(self) -> None:
        from repro.campaign.report import mapping_cost
        from repro.jobs.service import JobDirectoryService
        from repro.ops import CallbackProbeSource, FakeClock, Monitor

        op_digests, bad, cost, disk = [], [], 0.0, 0
        healthy = {"failures": {}, "traffic": []}
        for index, (source, design, steps) in enumerate(self.rounds):
            base = self.work / f"monitor-{self.passes:04d}-{index}"
            service = JobDirectoryService(base / "inbox", workers=1,
                                          cache_dir=base / "cache")
            observed = [healthy]
            fake = FakeClock()
            monitor = Monitor(
                base / "inbox", CallbackProbeSource(lambda now: observed[0]), source,
                provision=self.mesh, period_s=self.period_s, clock=fake,
                store_path=service.runner.cache.store.directory,
            )
            monitor.poll_once()
            settled = []
            for step in steps:
                fake.advance(self.period_s)
                observed[0] = step
                with self.clock.region():
                    enqueued = monitor.poll_once()
                    records = service.run_once()
                    self.clock.op_done()
                settled.append((step, enqueued, records))

            for step, enqueued, records in settled:
                if (enqueued is None or len(records) != 1
                        or records[0]["status"] != "done"):
                    op_digests.append(None)
                    bad.append(False)
                    continue
                envelopes = json.loads((service.inbox / records[0]["results"]).read_text())
                payload = envelopes[0]["payload"]
                digest = payload_digest(payload)
                op_digests.append(digest)
                bad.append(bool(self.gate.referee(payload, digest,
                                                  self._current_design(design, step))))
                cost += mapping_cost(payload.get("mapping", {}))
            disk += tree_bytes(base)
            shutil.rmtree(base)
        self._settle(op_digests, bad, cost, disk)


WORKLOADS = {cls.name: cls for cls in (ServeHits, MeshStudy, MonitorRepair)}
