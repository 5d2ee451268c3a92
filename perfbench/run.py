"""End-to-end benchmark of the mapping system along the paths users run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_hits --seed 0 --seconds 20 --trace 0

Workloads: ``serve_hits``, ``mesh8x8_study``, ``monitor_repair4x4`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs untraced passes for half the time and
traced passes for the rest, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import Installation, Tracer, dump_json, layer_table, per_layer_metrics
from workloads import WORKLOADS, OpClock, SetupDone, pin_quietest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: cold set-up probes per run; set-up time is their median
SETUP_PROBES = 5
#: fewest operations for which p90 is reported (10 samples lie beyond it)
P90_MIN_OPS = 100
#: relative drift tolerated in byte counters, which include wall-clock fields
BYTES_TOLERANCE = 1e-3


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: stop at the first timed operation")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _source_digest() -> str:
    """Digest of the code and inputs the benchmark runs (the state-file key)."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [ROOT / "examples" / "campaigns" / "mesh8x8_study.json"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _provenance(source_digest: str) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_digest": source_digest[:16],
    }


def _setup_samples(args) -> list:
    """Cold set-up times: fresh processes run up to their first timed op.

    Each process starts on the quietest CPU, as the timed passes do.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        pin_quietest_cpu()  # the child inherits the pinning
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not lines[-1].startswith("setup_end "):
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        samples.append(float(lines[-1].split()[1]) - started)
    return samples


def _pinned_digest(workload: str, seed: int):
    pin = json.loads((HERE / "digests.json").read_text()).get(workload)
    return pin["digest"] if pin and pin["seed"] == seed else None


def _pass_counters(tracer) -> dict:
    counts = {f"{name}.calls": entry[0] for name, entry in tracer.spans.items()}
    counts.update(tracer.counters)
    return counts


def _counter_drift(first: dict, other: dict) -> list:
    """Counters that differ; byte counters within BYTES_TOLERANCE are equal."""
    drift = []
    for key in sorted(set(first) | set(other)):
        a, b = first.get(key, 0), other.get(key, 0)
        if key.endswith(".bytes"):
            if abs(a - b) > BYTES_TOLERANCE * max(abs(a), abs(b), 1):
                drift.append(key)
        elif a != b:
            drift.append(key)
    return drift


def _check_state(args, source_digest: str, digest: str, counters) -> tuple:
    """Compare with an earlier run of the same code and seed; record if first.

    Returns (digest matches, drifting counters).
    """
    state_dir = OUT / "state"
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{args.workload}-seed{args.seed}-{source_digest[:16]}.json"
    try:
        state = json.loads(path.read_text())
    except (OSError, ValueError):
        state = {}
    same_digest = state.get("digest", digest) == digest
    drift = []
    if counters is not None and "counters" in state:
        drift = _counter_drift(state["counters"], counters)
    updated = dict(state, digest=state.get("digest", digest))
    if counters is not None and "counters" not in state:
        updated["counters"] = counters
    if updated != state:
        scratch = path.with_suffix(f".tmp{os.getpid()}")
        scratch.write_text(json.dumps(updated, sort_keys=True))
        os.replace(scratch, path)
    return same_digest, drift


def _percentile_line(latencies: list) -> str:
    if len(latencies) < P90_MIN_OPS:
        return f"op_p90_ms         not reported ({len(latencies)} ops < {P90_MIN_OPS})"
    p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return f"op_p90_ms         {p90:.4f} ms  (n={len(latencies)})"


def _traced_passes(workload, clock, seconds: float):
    """Untraced passes for half the time, then traced passes for the rest.

    Returns the tracer and a summary: traced passes and time, the tracing
    overhead per operation against the untraced passes, the first traced
    pass's counters and the counters that differ between traced passes.
    """
    while workload.passes == 0 or time.perf_counter() < clock.setup_end + seconds / 2:
        workload.run_pass()
    untraced_s, untraced_ops = clock.timed_s, len(clock.latencies)
    tracer = Tracer()
    installation = Installation(tracer).install()
    clock.tracer = tracer
    totals = []  # the tracer's cumulative counters after each traced pass
    try:
        while not totals or time.perf_counter() < clock.setup_end + seconds:
            workload.run_pass()
            totals.append(_pass_counters(tracer))
    finally:
        installation.remove()
        clock.tracer = None
    per_pass = [totals[0]] + [
        {key: later.get(key, 0) - earlier.get(key, 0) for key in set(later) | set(earlier)}
        for earlier, later in zip(totals, totals[1:])
    ]
    traced_s = clock.timed_s - untraced_s
    traced_ops = len(clock.latencies) - untraced_ops
    return tracer, {
        "passes": len(per_pass),
        "timed_s": traced_s,
        "overhead": (traced_s / traced_ops) / (untraced_s / untraced_ops) - 1,
        "counters": per_pass[0],
        "drift": sorted({key for other in per_pass[1:]
                         for key in _counter_drift(per_pass[0], other)}),
    }


def _end_to_end(workload, clock, setup: list) -> dict:
    best = clock.best_latencies()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "disk_mb": (workload.disk_bytes / 1e6, "MB"),
    }
    print(f"setup samples     {', '.join(f'{value:.4f}' for value in setup)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<17} {value:.4f} {unit}")
    print(f"all passes        {len(clock.latencies) / clock.timed_s:.4f} 1/s,"
          f" p50 {statistics.median(clock.latencies) * 1e3:.4f} ms"
          f"  (every pass, not just each op's fastest)")
    print(_percentile_line(clock.latencies))
    print(f"mapping_cost      {workload.mapping_cost:.6f} cost  (one pass)")
    return metrics


def _per_layer(args, workload, tracer, traced: dict, drift: list, provenance: dict,
               units: dict) -> dict:
    passes = traced["passes"]
    values = per_layer_metrics(tracer, traced["timed_s"], passes)
    values["validate.validate_mapping.calls"] = workload.gate.referee_calls
    values["validate.validate_mapping.ms"] = workload.gate.referee_s * 1e3
    values["trace.overhead_frac"] = traced["overhead"]
    table = layer_table(tracer, traced["timed_s"])
    print(f"tracing overhead  {traced['overhead'] * 100:+.1f}% wall per operation"
          f" ({passes} traced passes vs {workload.passes - passes} untraced)")
    print(f"{'span (per pass)':<34} {'calls':>10} {'total ms':>12} {'self ms':>12}")
    for name, row in table.items():
        print(f"{name:<34} {row['calls'] / passes:>10.1f} {row['ms'] / passes:>12.3f}"
              f" {row['self_ms'] / passes:>12.3f}")
    for name in sorted(values):
        print(f"{name:<40} {values[name]:.6g}")
    flagged = sorted(set(traced["drift"]) | set(drift))
    print("counters          " + ("identical across passes and runs" if not flagged
                                  else f"NOT IDENTICAL: {', '.join(flagged)}"))
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{args.workload}-seed{args.seed}"
    dump_json(tracer.chrome_trace(), f"{stem}.trace.json", indent=None)
    dump_json({"provenance": provenance, "passes": passes, "layers": table,
               "metrics": values, "counters_first_pass": traced["counters"],
               "flagged_counters": flagged}, f"{stem}.layers.json")
    print(f"trace written     {stem}.trace.json  (open in chrome://tracing or ui.perfetto.dev)")
    return {name: (values[name], unit) for name, unit in units.items()}


def _run(args, work: Path, clock) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    source_digest = _source_digest()
    provenance = _provenance(source_digest)
    setup = [] if args.trace else _setup_samples(args)
    workload = WORKLOADS[args.workload](
        args.seed, work, clock, _pinned_digest(args.workload, args.seed))
    workload.prepare()
    if args.trace:
        tracer, traced = _traced_passes(workload, clock, args.seconds)
    else:
        while workload.passes == 0 or time.perf_counter() < clock.setup_end + args.seconds:
            workload.run_pass()
        traced = {}

    gate = workload.gate
    same_digest, drift = _check_state(args, source_digest, gate.digests[0],
                                      traced.get("counters"))
    failed, attempted = workload.failed, workload.attempted
    if not same_digest:
        gate.reasons["digest differs from an earlier run"] = attempted
        failed = attempted
    if gate.pinned is None:
        pinned = "none for this seed"
    else:
        pinned = "match" if set(gate.digests) == {gate.pinned} else "MISMATCH"
    print(f"provenance        {json.dumps(provenance, sort_keys=True)}")
    print(f"workload          {args.workload}  seed={args.seed}  passes={workload.passes}"
          f"  ops={len(clock.latencies)}  timed_s={clock.timed_s:.3f}")
    print(f"pass digest       {gate.digests[0]}  pinned={pinned}")
    print(f"failed_frac       {failed / attempted:.6f} ratio  ({failed}/{attempted})"
          + (f"  reasons={gate.reasons}" if gate.reasons else ""))
    print(f"referee           {gate.referee_calls} distinct mappings validated"
          f" in {gate.referee_s * 1e3:.1f} ms")

    if args.trace:
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
        metrics = _per_layer(args, workload, tracer, traced, drift, provenance, units)
    else:
        metrics = _end_to_end(workload, clock, setup)
        metrics = {entry["name"]: metrics[entry["name"]] for entry in declared["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = OpClock(probe=args.setup_probe)
    try:
        if not args.setup_probe:
            return _run(args, work, clock)
        try:
            workload = WORKLOADS[args.workload](args.seed, work, clock)
            workload.prepare()
            workload.run_pass()
        except SetupDone as done:
            print(f"setup_end {done.args[0]!r}")
            return 0
        print("error: the workload never started timing", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
