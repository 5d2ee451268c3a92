"""Per-layer tracing installed from outside the program.

The traced benchmark run wraps the public functions of each layer (see
``SPANS`` and ``COUNTS``) with thin recorders, so per-layer times and work
counts come out of an unmodified ``src/`` tree.  Wrappers record only while
``Tracer.active`` is set, which the workloads do around their timed regions;
set-up and output checking stay out of the numbers.

Every span records its name, start, end and the span that was open when it
started.  Aggregates (calls, inclusive and self time) are kept online for
every span; raw spans are kept for the Chrome trace only up to
``MAX_SPANS``.  Below ``routing.select_least_cost`` only calls are
counted, so a traced 8x8 campaign stays usable.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: the codec the tracer itself uses; captured before ``json`` is wrapped
_dumps = json.dumps

#: raw spans kept for the Chrome trace (aggregates cover every span)
MAX_SPANS = 100_000

#: (span name, module, attribute path) of every timed public function
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run"),
    ("campaign.reduce", "repro.campaign.runner", "CampaignRunner.reduce"),
    ("ops.poll_once", "repro.ops.monitor", "Monitor.poll_once"),
    ("ops.event_append", "repro.ops.events", "EventLog.append"),
    ("service.process_file", "repro.jobs.service", "JobDirectoryService.process_file"),
    ("runner.run_many", "repro.jobs.runner", "JobRunner.run_many"),
    ("runner.execute_job", "repro.jobs.runner", "execute_job"),
    ("runner.to_dict", "repro.jobs.runner", "JobResult.to_dict"),
    ("cache.get", "repro.jobs.cache", "JobCache.get"),
    ("cache.put", "repro.jobs.cache", "JobCache.put"),
    ("cache.sync_store", "repro.jobs.cache", "JobCache.sync_store"),
    ("store.get_result", "repro.jobs.store", "EngineStateStore.get_result"),
    ("store.load_evaluations", "repro.jobs.store", "EngineStateStore.load_evaluations"),
    ("store.append_evaluations", "repro.jobs.store", "EngineStateStore.append_evaluations"),
    ("store.ingest", "repro.jobs.store", "EngineStateStore.ingest"),
    ("gen.build", "repro.jobs.spec", "UseCaseSource.build"),
    ("repair.repair_mapping", "repro.core.repair", "repair_mapping"),
    ("engine.map", "repro.core.engine", "MappingEngine.map"),
    ("engine.evaluate_placement", "repro.core.engine", "MappingEngine.evaluate_placement"),
    ("refine.refine", "repro.optimize.annealing", "AnnealingRefiner.refine"),
    ("refine.refine", "repro.optimize.tabu", "TabuRefiner.refine"),
    ("screen.screen", "repro.optimize.screen", "CandidateScreen.screen"),
    ("screen.cost", "repro.optimize.screen", "CandidateScreen.cost"),
    ("mapper.map_requirements", "repro.core.mapping", "UnifiedMapper.map_requirements"),
    ("mapper.map_with_placement", "repro.core.mapping", "UnifiedMapper.map_with_placement"),
    ("routing.select_least_cost", "repro.noc.routing", "PathSelector.select_least_cost"),
    ("json.encode", "json", "dumps"),
    ("json.decode", "json", "loads"),
)

#: (counter name, module, attribute path) of functions only counted
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("mapper.evaluate_group_fixed", "repro.core.mapping", "UnifiedMapper.evaluate_group_fixed"),
    ("screen.numpy_batches", "repro.optimize.screen", "NumpyMaskBackend.admissible_start_masks"),
    ("routing.mesh_minimal_paths", "repro.noc.routing", "mesh_minimal_paths"),
    ("resources.can_reserve", "repro.noc.resources", "ResourceState.can_reserve"),
    ("resources.path_cost", "repro.noc.resources", "ResourceState.path_cost"),
    ("resources.reserve", "repro.noc.resources", "ResourceState.reserve"),
    ("resources.copy", "repro.noc.resources", "ResourceState.copy"),
    ("slot_table.copy", "repro.noc.slot_table", "SlotTable.copy"),
)


class Tracer:
    """In-memory span recorder with online per-name aggregates."""

    def __init__(self) -> None:
        self.active = False
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: name -> value, for counted calls and derived quantities
        self.counters: Dict[str, float] = defaultdict(float)
        #: seconds covered by spans that had no parent
        self.root_s = 0.0
        #: (id, parent id, name, start, end), for the Chrome trace
        self.events: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: List[List] = []  # [name, start, child seconds, id]
        self._next_id = 1

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        entry = self.spans[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        else:
            self.root_s += duration
            parent = 0
        if len(self.events) < MAX_SPANS:
            self.events.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def chrome_trace(self) -> Dict:
        """The recorded spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = self.events[0][3] if self.events else 0.0
        pid = os.getpid()
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                    "pid": pid, "tid": 1,
                    "args": {"id": span_id, "parent": parent},
                }
                for span_id, parent, name, start, end in self.events
            ],
            "otherData": {"dropped_spans": self.dropped},
        }


# --------------------------------------------------------------------------- #
# hooks: extra quantities measured at a wrapped boundary
# --------------------------------------------------------------------------- #
def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _before_append(args, kwargs):
    store, context = args[0], args[1]
    return _file_size(store.evaluation_path(context))


# Hooks run after a wrapped call returns: (tracer, token, args, result),
# where ``token`` is what the matching ``_BEFORE`` hook returned.
def _cache_get(tracer, token, args, result):
    tracer.counters["cache.get.hits"] += result is not None


def _cache_put(tracer, token, args, result):
    tracer.counters["cache.put.bytes"] += _file_size(result)


def _append_evaluations(tracer, token, args, result):
    store, context = args[0], args[1]
    tracer.counters["store.append_evaluations.bytes"] += (
        _file_size(store.evaluation_path(context)) - token
    )


def _encode(tracer, token, args, result):
    tracer.counters["json.encode.bytes"] += len(result)


def _decode(tracer, token, args, result):
    tracer.counters["json.decode.bytes"] += len(args[0])


def _process_file(tracer, token, args, result):
    if result is not None:
        tracer.counters["service.files"] += 1
        tracer.counters["service.attempts"] += result.get("attempts", 1)


def _run_many(tracer, token, args, result):
    """Sum the engine counters of envelopes executed (not cached) here."""
    for job_result in result:
        if job_result.cached:
            continue
        engine = job_result.stats.get("engine", {})
        for key in ("result_misses", "evaluation_misses", "evaluation_hits",
                    "screen_misses"):
            tracer.counters[f"engine.{key}"] += engine.get(key, 0)


def _repair(tracer, token, args, result):
    tracer.counters["repair.affected_groups"] += len(result.affected_group_ids)


def _minimal_paths(tracer, token, args, result):
    tracer.counters["routing.mesh_minimal_paths.paths"] += len(result)


_BEFORE = {"store.append_evaluations": _before_append}
_AFTER = {
    "cache.get": _cache_get,
    "cache.put": _cache_put,
    "store.append_evaluations": _append_evaluations,
    "json.encode": _encode,
    "json.decode": _decode,
    "service.process_file": _process_file,
    "runner.run_many": _run_many,
    "repair.repair_mapping": _repair,
    "routing.mesh_minimal_paths": _minimal_paths,
}


def _span_wrapper(tracer: Tracer, name: str, function: Callable) -> Callable:
    before = _BEFORE.get(name)
    after = _AFTER.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        token = before(args, kwargs) if before else None
        tracer.enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if after:
            after(tracer, token, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, function: Callable) -> Callable:
    after = _AFTER.get(name)
    calls = f"{name}.calls"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        if tracer.active:
            tracer.counters[calls] += 1
            if after:
                after(tracer, None, args, result)
        return result

    return wrapper


class Installation:
    """Wrappers installed into live modules; :meth:`remove` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[object, str, object]] = []

    def _replace(self, owner, attribute: str, original, wrapped) -> None:
        setattr(owner, attribute, wrapped)
        self._restore.append((owner, attribute, original))

    def install(self) -> "Installation":
        for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
            for name, module_name, path in table:
                module = importlib.import_module(module_name)
                *owner_path, attribute = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
                wrapped = make(self.tracer, name, original)
                self._replace(owner, attribute, original, wrapped)
                if owner is module and module_name != "json":
                    # ``from module import function`` copies elsewhere
                    for other in list(sys.modules.values()):
                        if (other is not module and other is not None
                                and getattr(other, "__name__", "").startswith("repro")
                                and getattr(other, attribute, None) is original):
                            self._replace(other, attribute, original, wrapped)
        return self

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()


def layer_table(tracer: Tracer, timed_s: float) -> Dict[str, Dict[str, float]]:
    """Per-span calls / total ms / self ms, plus ``other`` for uncovered time."""
    table = {
        name: {"calls": int(calls), "ms": total * 1e3, "self_ms": own * 1e3}
        for name, (calls, total, own) in sorted(tracer.spans.items())
    }
    table["other"] = {"calls": 0, "ms": (timed_s - tracer.root_s) * 1e3,
                      "self_ms": (timed_s - tracer.root_s) * 1e3}
    return table


def per_layer_metrics(tracer: Tracer, timed_s: float, passes: int) -> Dict[str, float]:
    """Every per-layer metric, as a per-pass mean over ``passes`` traced passes."""
    spans, counters = tracer.spans, tracer.counters

    def calls(name):
        return spans[name][0] if name in spans else 0

    def ms(name):
        return spans[name][1] * 1e3 if name in spans else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values: Dict[str, float] = {}
    for name, _, _ in SPANS:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.ms"] = ms(name)
    values["service.process_file.self_ms"] = (
        spans["service.process_file"][2] * 1e3 if "service.process_file" in spans else 0.0
    )
    for name, _, _ in COUNTS:
        values[f"{name}.calls"] = counters.get(f"{name}.calls", 0)
    for key in ("cache.put.bytes", "store.append_evaluations.bytes",
                "json.encode.bytes", "json.decode.bytes", "repair.affected_groups",
                "routing.mesh_minimal_paths.paths", "engine.result_misses",
                "engine.evaluation_misses", "engine.screen_misses"):
        values[key] = counters.get(key, 0)
    values["cache.get.hit_frac"] = ratio(counters.get("cache.get.hits", 0),
                                         calls("cache.get"))
    evaluations = counters.get("engine.evaluation_hits", 0) + counters.get(
        "engine.evaluation_misses", 0)
    values["engine.evaluation_hit_frac"] = ratio(
        counters.get("engine.evaluation_hits", 0), evaluations)
    values["service.attempts_per_file"] = ratio(counters.get("service.attempts", 0),
                                                counters.get("service.files", 0))
    values["other.ms"] = (timed_s - tracer.root_s) * 1e3
    ratios = {"cache.get.hit_frac", "engine.evaluation_hit_frac",
              "service.attempts_per_file"}
    return {
        key: value if key in ratios else value / max(1, passes)
        for key, value in values.items()
    }


def dump_json(document, path, indent: Optional[int] = 1) -> None:
    """Write JSON with the unwrapped codec (safe while wrappers are live)."""
    with open(path, "w") as handle:
        handle.write(_dumps(document, indent=indent, sort_keys=True))
