"""Job-directory service loop: the backend of ``python -m repro serve``.

The serve story of the ROADMAP in its simplest robust form: a directory is
the queue.  Producers submit work by dropping job-spec JSON files (any shape
:func:`repro.jobs.spec.load_jobs` accepts) into an *inbox*; a
:class:`JobDirectoryService` tails the inbox and drives every submitted file
through the :class:`~repro.jobs.runner.JobRunner` — with its process pool,
its persistent :class:`~repro.jobs.cache.JobCache` and store-seeded engines.

Everything lives inside the inbox directory::

    INBOX/*.json           pending spec files (drop one to submit it)
    INBOX/running/         claimed by a service instance, execution in flight
    INBOX/done/            spec files whose results were written
    INBOX/failed/          spec files that could not be loaded or executed
    INBOX/results/         one compact JSON list of JobResult envelopes per spec file
    INBOX/manifest.jsonl   rolling log: one JSON line per processed file

The lifecycle contract:

* **claiming is atomic** — a pending file is claimed with one ``os.rename``
  into ``running/``.  Renames within a directory tree are atomic on POSIX,
  so two service instances sharing an inbox never execute the same file
  (the loser's rename raises ``FileNotFoundError`` and it moves on).
* **results before completion** — a spec file is renamed into ``done/``
  only *after* its result envelopes were written to ``results/``; observers
  can treat the appearance of a file in ``done/`` as "results are on disk".
* **crash-safe resume** — a service that dies mid-execution leaves its
  claimed files in ``running/``.  The first drain of the *next* instance
  renames those back into the inbox and re-executes them; with a
  persistent cache the redone work is answered from disk, so a crash costs
  at most the files that were actually in flight.  Recovery runs once per
  instance, at startup — never mid-operation — so it cannot steal a live
  peer's in-flight files; the one residual race (an instance *starting*
  while a peer is mid-execution) degrades to a duplicate execution with
  identical results, never to lost work or a crashed peer.
* **poison tolerance** — a file that cannot be loaded or executed is moved
  to ``failed/`` with the error recorded in the manifest, and the service
  keeps draining the rest of the inbox.
* **bounded retries** — *deterministic* errors (an unloadable document, a
  :class:`~repro.exceptions.ReproError` from execution) fail immediately:
  retrying a pure function of the spec cannot change the outcome.
  *Unexpected* errors — a crashed or timed-out execution, a corrupt results
  file, an injected fault — are retried with exponential backoff up to
  ``max_attempts``; a file that keeps failing is **quarantined** into
  ``failed/`` with every attempt's error in its manifest record
  (``quarantined: true``), so one poison job can never wedge the loop.
* **timeout isolation** — with ``job_timeout_s`` set, each attempt runs in
  a forked child process; a hung execution is terminated at the deadline
  and handled like any transient failure.  Results are written to a
  temporary file and validated (parsed) by the parent before the atomic
  rename that publishes them, so a crash mid-write can never publish a
  torn results file.

Every processed file appends one record to ``manifest.jsonl`` (append-only,
one JSON object per line) so external tooling can tail service history
without scanning the result files.  The manifest **rotates**: when the live
file exceeds ``manifest_max_bytes`` it is renamed to ``manifest-<n>.jsonl``
(monotonically numbered) and a fresh ``manifest.jsonl`` starts — an inbox
that sees millions of files never grows one unbounded log.
:func:`inbox_status` (the backend of ``python -m repro serve INBOX
--status``) reads the whole rotated history plus the state directories
without touching — or creating — anything.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.jobs.cache import dumps_compact
from repro.jobs.faults import FaultInjector, InjectedFault
from repro.jobs.runner import JobResult, JobRunner
from repro.jobs.spec import load_jobs
from repro.ops.clock import Clock, SystemClock

__all__ = ["JobDirectoryService", "inbox_status", "fleet_status"]


def _encode_results(results: Sequence[JobResult]) -> str:
    """A results file's text: one compact encode of the envelope list."""
    return dumps_compact([result.to_dict() for result in results])


def _unique_path(directory: Path, name: str) -> Path:
    """A path in ``directory`` for ``name`` that does not exist yet.

    Resubmitting a file name that already completed must not clobber the
    earlier record, so collisions get a ``-2``, ``-3``, ... suffix.
    """
    target = directory / name
    if not target.exists():
        return target
    stem, suffix = os.path.splitext(name)
    for counter in itertools.count(2):
        target = directory / f"{stem}-{counter}{suffix}"
        if not target.exists():
            return target
    raise AssertionError("unreachable")  # pragma: no cover


class JobDirectoryService:
    """Watches an inbox directory and executes submitted job-spec files.

    Parameters
    ----------
    inbox:
        The watched directory (created, along with its state subdirectories,
        if missing).
    workers:
        Process-pool width handed to the :class:`JobRunner`.
    cache_dir:
        Directory of the persistent result cache.  Strongly recommended for
        a service: resubmitted and resumed files are answered from disk, and
        fresh engines are seeded from the cache's engine-state store.
    seed_engines:
        Attach every execution's engine to the cache's engine-state store
        for reads (only meaningful with ``cache_dir``; default on).
    runner:
        Inject a pre-configured :class:`JobRunner` instead (overrides the
        three knobs above).
    manifest_max_bytes:
        Rotation threshold for ``manifest.jsonl``: once the live file
        reaches this size, the next record rotates it to
        ``manifest-<n>.jsonl`` and starts fresh.  Readers
        (:func:`inbox_status`, :meth:`manifest_records`) always see the
        whole rotated history.
    max_attempts:
        Executions per file before a transiently failing job is quarantined
        into ``failed/``.  Deterministic errors never retry.
    retry_backoff_s:
        Base sleep between attempts; attempt ``n`` waits
        ``retry_backoff_s * 2**(n-1)``.
    job_timeout_s:
        Per-attempt wall-clock budget.  When set, attempts run in a forked
        child process that is terminated at the deadline (a timeout counts
        as a transient failure); when ``None`` attempts run in-process and
        are never preempted.
    fault_injector:
        A :class:`~repro.jobs.faults.FaultInjector` that deterministically
        kills/hangs/corrupts a fraction of attempts (tests, chaos drills).
        Defaults to :meth:`FaultInjector.from_env`, so ``REPRO_FAULT_*``
        environment variables inject faults into a real service process.
    """

    #: default manifest rotation threshold (~4 MB ≈ tens of thousands of
    #: records per segment)
    DEFAULT_MANIFEST_MAX_BYTES = 4_000_000

    def __init__(
        self,
        inbox: Union[str, Path],
        workers: Optional[int] = None,
        cache_dir: Union[str, Path, None] = None,
        seed_engines: bool = True,
        runner: Optional[JobRunner] = None,
        manifest_max_bytes: int = DEFAULT_MANIFEST_MAX_BYTES,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        job_timeout_s: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        clock: Optional["Clock"] = None,
    ) -> None:
        self.inbox = Path(inbox)
        self.running_dir = self.inbox / "running"
        self.done_dir = self.inbox / "done"
        self.failed_dir = self.inbox / "failed"
        self.results_dir = self.inbox / "results"
        for directory in (self.inbox, self.running_dir, self.done_dir,
                          self.failed_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.inbox / "manifest.jsonl"
        self.manifest_max_bytes = manifest_max_bytes
        self.runner = runner or JobRunner(
            workers=workers,
            cache_dir=cache_dir,
            seed_engines=seed_engines and cache_dir is not None,
        )
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = retry_backoff_s
        self.clock = clock or SystemClock()
        self.job_timeout_s = job_timeout_s
        self.fault_injector = (
            FaultInjector.from_env() if fault_injector is None else fault_injector
        )
        #: files processed (done + failed) over this service's lifetime
        self.processed_files = 0
        self._stop = False
        self._recovered = False

    # ------------------------------------------------------------------ #
    # directory protocol
    # ------------------------------------------------------------------ #
    def pending(self) -> List[Path]:
        """Spec files currently waiting in the inbox, in submission-name order.

        Sorting by name makes one drain deterministic; producers that care
        about ordering can prefix names with a sequence number.
        """
        return sorted(
            entry for entry in self.inbox.glob("*.json") if entry.is_file()
        )

    def recover(self) -> List[Path]:
        """Return files a crashed instance left in ``running/`` to the inbox.

        The crash-safe-resume half of the contract: anything in ``running/``
        at *startup* was claimed but not completed, so it is made pending
        again and will be re-executed (cheaply, when the cache already
        holds its results).  :meth:`run_once` calls this exactly once per
        instance — recovering on every drain would steal the in-flight
        files of a live peer sharing the inbox.  Returns the inbox paths
        the stale files were moved to.
        """
        self._recovered = True
        recovered: List[Path] = []
        for stale in sorted(self.running_dir.glob("*.json")):
            target = _unique_path(self.inbox, stale.name)
            try:
                os.replace(stale, target)
            except FileNotFoundError:
                continue  # a concurrently starting peer recovered it first
            recovered.append(target)
        return recovered

    def _claim(self, path: Path) -> Optional[Path]:
        """Atomically move a pending file into ``running/``; None if lost."""
        target = _unique_path(self.running_dir, path.name)
        try:
            os.rename(path, target)
        except FileNotFoundError:
            return None  # another instance claimed it first
        return target

    def _append_manifest(self, record: Dict) -> None:
        self._rotate_manifest_if_needed()
        with self.manifest_path.open("a") as manifest:
            manifest.write(json.dumps(record) + "\n")

    def _rotate_manifest_if_needed(self) -> Optional[Path]:
        """Rotate the live manifest once it reaches the size threshold.

        The live file is renamed to the next free ``manifest-<n>.jsonl``
        (monotonic, so chronological order is recoverable by number) and
        appending continues into a fresh ``manifest.jsonl``.  Returns the
        rotated path, or ``None`` when no rotation happened.
        """
        try:
            size = self.manifest_path.stat().st_size
        except OSError:
            return None
        if size < self.manifest_max_bytes:
            return None
        rotated = _rotated_manifests(self.inbox)
        next_index = rotated[-1][0] + 1 if rotated else 1
        target = self.inbox / f"manifest-{next_index}.jsonl"
        try:
            os.replace(self.manifest_path, target)
        except FileNotFoundError:  # pragma: no cover - racing peer rotated it
            return None
        return target

    def manifest_records(self) -> Iterator[Dict]:
        """Every manifest record, oldest first, across all rotated segments."""
        return _iter_manifest_records(self.inbox)

    def status(self) -> Dict:
        """Aggregate inbox state (see :func:`inbox_status`)."""
        return inbox_status(self.inbox)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def process_file(self, claimed: Path) -> Optional[Dict]:
        """Execute one claimed spec file and settle it into done/ or failed/.

        Returns the manifest record that was appended.  Never raises for a
        bad file: load and execution errors mark the file failed and the
        service moves on.  Deterministic errors (an unloadable document, a
        :class:`ReproError` from execution) fail on the first attempt;
        transient ones (crash, timeout, corrupt results, injected fault)
        retry with backoff up to ``max_attempts`` before the file is
        quarantined.  Returns ``None`` when the claim was lost before any
        work happened — a freshly started peer recovered the file while it
        sat in ``running/`` — in which case the peer owns it now and
        nothing is recorded.
        """
        started = time.perf_counter()
        try:
            jobs = load_jobs(claimed)
        except Exception as exc:  # noqa: BLE001 — poison files must not kill the loop
            # A document that does not load is deterministically broken:
            # no retry can fix it.
            if not claimed.exists():
                return None  # claim lost to a recovering peer before loading
            return self._settle_failed(claimed, f"{type(exc).__name__}: {exc}",
                                       attempts=1, attempt_errors=[],
                                       started=started)

        attempt_errors: List[str] = []
        for attempt in range(1, self.max_attempts + 1):
            token = f"{claimed.name}:{attempt}"
            try:
                text, envelopes, executed = self._attempt(claimed, jobs, token)
            except ReproError as exc:
                # Executions are pure functions of the spec: a domain error
                # is deterministic, so retrying cannot change it.
                if not claimed.exists():
                    return None
                return self._settle_failed(claimed, f"{type(exc).__name__}: {exc}",
                                           attempts=attempt,
                                           attempt_errors=attempt_errors,
                                           started=started)
            except Exception as exc:  # noqa: BLE001 — transient: crash/timeout/corruption
                attempt_errors.append(f"{type(exc).__name__}: {exc}")
                if attempt < self.max_attempts:
                    if self.retry_backoff_s:
                        self.clock.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
                    continue
                if not claimed.exists():
                    return None
                return self._settle_failed(claimed, attempt_errors[-1],
                                           attempts=attempt,
                                           attempt_errors=attempt_errors,
                                           started=started)
            else:
                break

        target = _unique_path(self.done_dir, claimed.name)
        results_path = self.results_dir / f"{target.stem}.json"
        results_path.write_text(text)
        # Results are on disk — only now does the spec count as done.
        try:
            os.replace(claimed, target)
        except FileNotFoundError:
            # A freshly started peer recovered our claimed file while we
            # were executing.  The work is done and the (deterministic)
            # results are written, so record it; whoever re-claimed the
            # spec will settle the file itself with identical results.
            pass
        record = {
            "file": target.name,
            "status": "done",
            "jobs": len(envelopes),
            "cached": sum(1 for envelope in envelopes if envelope.get("cached")),
            "executed": executed,
            "spec_hashes": [envelope["spec_hash"] for envelope in envelopes],
            "results": str(results_path.relative_to(self.inbox)),
            "attempts": len(attempt_errors) + 1,
        }
        if attempt_errors:
            record["attempt_errors"] = attempt_errors
        record["elapsed_s"] = round(time.perf_counter() - started, 6)
        record["unix_time"] = round(time.time(), 3)
        self._append_manifest(record)
        self.processed_files += 1
        return record

    def _settle_failed(
        self,
        claimed: Path,
        error: str,
        attempts: int,
        attempt_errors: List[str],
        started: float,
    ) -> Optional[Dict]:
        """Move a claimed file into ``failed/`` and append its record.

        A file whose every allowed attempt failed transiently is marked
        ``quarantined`` — it exhausted its retry budget rather than failing
        deterministically.
        """
        target = _unique_path(self.failed_dir, claimed.name)
        try:
            os.replace(claimed, target)
        except FileNotFoundError:
            return None
        record: Dict = {
            "file": target.name,
            "status": "failed",
            "error": error,
            "attempts": attempts,
        }
        if attempt_errors:
            record["attempt_errors"] = list(attempt_errors)
        if attempts >= self.max_attempts and len(attempt_errors) == attempts:
            record["quarantined"] = True
        record["elapsed_s"] = round(time.perf_counter() - started, 6)
        record["unix_time"] = round(time.time(), 3)
        self._append_manifest(record)
        self.processed_files += 1
        return record

    # ------------------------------------------------------------------ #
    # one execution attempt (in-process or isolated)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _corrupt(text: str) -> str:
        """Injected corruption: truncate mid-document and append garbage."""
        return text[: max(1, len(text) // 2)] + "\x00<injected-corruption>"

    @staticmethod
    def _validated(text: str) -> List[Dict]:
        """Parse a results payload, raising on anything torn or corrupt."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"results payload is corrupt: {exc}") from None
        if not isinstance(document, list):
            raise ValueError("results payload is not a list of envelopes")
        return document

    def _attempt(
        self, claimed: Path, jobs: List, token: str
    ) -> Tuple[str, List[Dict], int]:
        """Run one execution attempt; returns (payload text, envelopes, executed).

        The payload text is validated (parsed) before being returned, so a
        corrupted write surfaces here — as a retryable error — never as a
        published torn results file.
        """
        injector = self.fault_injector
        action = injector.action(token) if injector is not None else None
        if self.job_timeout_s is not None:
            return self._attempt_isolated(claimed, jobs, token, action)
        if action == "kill":
            raise InjectedFault(f"injected kill ({token})")
        if action == "hang":
            # In-process there is nothing to preempt the stall; model the
            # watchdog giving up after the hang.
            self.clock.sleep(injector.hang_s)
            raise InjectedFault(f"injected hang ({token})")
        executed_before = self.runner.executed_jobs
        results = self.runner.run_many(jobs)
        executed = self.runner.executed_jobs - executed_before
        text = _encode_results(results)
        if action == "corrupt":
            text = self._corrupt(text)
        return text, self._validated(text), executed

    def _attempt_isolated(
        self, claimed: Path, jobs: List, token: str, action: Optional[str]
    ) -> Tuple[str, List[Dict], int]:
        """Run one attempt in a forked child under the wall-clock budget.

        The child writes the serialised envelopes to a temporary file; the
        parent validates them after a clean exit.  Kill faults crash the
        child, hang faults stall it into the timeout, corrupt faults garble
        the temporary file — all surface as retryable errors here, and the
        real results file is only ever written from validated content.
        """
        tmp_path = self.results_dir / f".{claimed.name}.{token.rsplit(':', 1)[-1]}.tmp"
        injector = self.fault_injector

        def _child() -> None:
            try:
                if action == "kill":
                    os._exit(23)
                if action == "hang":
                    time.sleep(injector.hang_s if injector is not None else 3600)
                text = _encode_results(self.runner.run_many(jobs))
                if action == "corrupt":
                    text = self._corrupt(text)
                tmp_path.write_text(text)
            except ReproError as exc:
                tmp_path.write_text(json.dumps(
                    {"__error__": f"{type(exc).__name__}: {exc}"}
                ))
                os._exit(17)
            except BaseException:  # noqa: BLE001 - child reports via exit code
                os._exit(29)
            os._exit(0)

        process = multiprocessing.get_context("fork").Process(target=_child)
        try:
            process.start()
            process.join(self.job_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join()
                raise TimeoutError(
                    f"execution exceeded {self.job_timeout_s}s ({token})"
                )
            if process.exitcode == 17:
                message = "execution failed"
                try:
                    message = json.loads(tmp_path.read_text())["__error__"]
                except Exception:  # noqa: BLE001 - marker file may be torn
                    pass
                raise ReproError(message)
            if process.exitcode != 0:
                raise ChildProcessError(
                    f"execution crashed with exit code {process.exitcode} ({token})"
                )
            text = tmp_path.read_text()
            envelopes = self._validated(text)
            executed = sum(
                1 for envelope in envelopes if not envelope.get("cached")
            )
            return text, envelopes, executed
        finally:
            try:
                tmp_path.unlink()
            except OSError:
                pass

    def run_once(self) -> List[Dict]:
        """Recover (first drain only), then drain the inbox.

        Polls again after each batch so files submitted while a batch was
        executing are picked up in the same drain; returns the manifest
        records once the inbox is observed empty (or :meth:`stop` was
        called).
        """
        if not self._recovered:
            self.recover()
        records: List[Dict] = []
        while not self._stop:
            batch = self.pending()
            if not batch:
                break
            for path in batch:
                if self._stop:
                    break
                claimed = self._claim(path)
                if claimed is None:
                    continue
                record = self.process_file(claimed)
                if record is not None:
                    records.append(record)
        return records

    def serve_forever(
        self,
        poll_interval: float = 1.0,
        max_polls: Optional[int] = None,
    ) -> int:
        """Drain the inbox repeatedly, sleeping ``poll_interval`` in between.

        Runs until :meth:`stop` is called (from a signal handler or another
        thread) or ``max_polls`` drains have happened (handy for tests);
        returns the number of files processed during the call.
        """
        processed_before = self.processed_files
        polls = 0
        while not self._stop:
            self.run_once()
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            if not self._stop:
                self.clock.sleep(poll_interval)
        return self.processed_files - processed_before

    def stop(self) -> None:
        """Ask the service loop to exit after the file currently in flight."""
        self._stop = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobDirectoryService({str(self.inbox)!r}, "
            f"processed={self.processed_files})"
        )


# --------------------------------------------------------------------------- #
# read-only inbox inspection (the backend of ``repro serve --status``)
# --------------------------------------------------------------------------- #
def _rotated_manifests(inbox: Path) -> List:
    """(index, path) pairs of rotated manifest segments, oldest first."""
    rotated = []
    for path in inbox.glob("manifest-*.jsonl"):
        suffix = path.stem[len("manifest-"):]
        if suffix.isdigit():
            rotated.append((int(suffix), path))
    return sorted(rotated)


def _iter_manifest_records(inbox: Path) -> Iterator[Dict]:
    """All manifest records of an inbox in chronological order.

    Walks the rotated segments by number, then the live file.  Unreadable
    files and undecodable lines (a torn tail from a crashed writer) are
    skipped — status must work on the inbox of a service that just died.
    """
    paths = [path for _, path in _rotated_manifests(inbox)]
    paths.append(inbox / "manifest.jsonl")
    for path in paths:
        try:
            raw = path.read_text()
        except OSError:
            continue
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def inbox_status(inbox: Union[str, Path]) -> Dict:
    """Aggregate the observable state of a service inbox, read-only.

    Counts the pending/running/done/failed spec files, folds the whole
    rotated manifest history into done/failed/job/cache totals and surfaces
    the most recent record.  Unlike constructing a
    :class:`JobDirectoryService`, this creates nothing on disk — pointing
    it at a directory that is not an inbox raises
    :class:`~repro.exceptions.ReproError` instead of scaffolding one.
    """
    root = Path(inbox)
    if not root.is_dir():
        raise ReproError(f"inbox directory {root} does not exist")
    counts = {
        "pending": sum(1 for entry in root.glob("*.json") if entry.is_file()),
        "running": len(list((root / "running").glob("*.json"))),
        "done": len(list((root / "done").glob("*.json"))),
        "failed": len(list((root / "failed").glob("*.json"))),
    }
    records = done = failed = jobs = cached = executed = 0
    files_retried = extra_attempts = 0
    quarantined: List[Dict] = []
    last: Optional[Dict] = None
    for record in _iter_manifest_records(root):
        records += 1
        last = record
        attempts = int(record.get("attempts", 1))
        if attempts > 1:
            files_retried += 1
            extra_attempts += attempts - 1
        if record.get("status") == "failed":
            failed += 1
            if record.get("quarantined"):
                quarantined.append({
                    "file": record.get("file"),
                    "attempts": attempts,
                    "error": record.get("error"),
                })
            continue
        done += 1
        jobs += int(record.get("jobs", 0))
        cached += int(record.get("cached", 0))
        executed += int(record.get("executed", 0))
    status = {
        "inbox": str(root),
        "files": counts,
        "manifest": {
            "segments": len(_rotated_manifests(root))
            + (1 if (root / "manifest.jsonl").exists() else 0),
            "records": records,
            "done": done,
            "failed": failed,
            "jobs": jobs,
            "cached": cached,
            "executed": executed,
        },
        "retries": {
            "files_retried": files_retried,
            "extra_attempts": extra_attempts,
        },
        "quarantined": quarantined,
        "last_record": last,
    }
    events_path = root / "monitor" / "events.jsonl"
    if events_path.exists():
        from repro.ops.events import replay_events

        try:
            state = replay_events(events_path)
        except ReproError as exc:
            status["monitor"] = {"error": str(exc)}
        else:
            status["monitor"] = {
                "events": state.seq,
                "time": state.time,
                "failures": state.failures.describe(),
                "traffic_overrides": len(state.traffic),
                "enqueued": len(state.enqueued),
                "last_enqueued": state.enqueued[-1] if state.enqueued else None,
            }
    return status


def fleet_status(
    inboxes: Sequence[Union[str, Path]],
    cache_dir: Union[str, Path, None] = None,
) -> Dict:
    """One summary over many inboxes: the fleet view of ``serve --status``.

    Runs :func:`inbox_status` on every inbox (same read-only contract — an
    inbox that does not exist raises rather than being scaffolded) and sums
    the file and manifest counters into a ``totals`` block.  With
    ``cache_dir``, the cache's engine-state store footprint is reported
    too — guarded by an existence check first, because the store's
    constructor creates its directory tree and a *status* query must not.
    """
    statuses = [inbox_status(inbox) for inbox in inboxes]
    totals = {
        "inboxes": len(statuses),
        "files": {key: 0 for key in ("pending", "running", "done", "failed")},
        "manifest": {
            key: 0
            for key in ("segments", "records", "done", "failed",
                        "jobs", "cached", "executed")
        },
        "quarantined": sum(len(status["quarantined"]) for status in statuses),
    }
    for status in statuses:
        for key in totals["files"]:
            totals["files"][key] += status["files"][key]
        for key in totals["manifest"]:
            totals["manifest"][key] += status["manifest"][key]
    store_stats: Optional[Dict] = None
    if cache_dir is not None:
        store_dir = Path(cache_dir) / "engine-state"
        if store_dir.is_dir():
            from repro.jobs.store import EngineStateStore

            store_stats = dict(EngineStateStore(store_dir).stats())
            store_stats["directory"] = str(store_dir)
    return {"inboxes": statuses, "totals": totals, "store": store_stats}
