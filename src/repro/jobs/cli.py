"""The ``python -m repro`` / ``repro`` command-line front door.

Three subcommands cover the common workflows without writing any Python:

``repro run job.json [more.json ...]``
    Execute job files (each holding one job, a list, or ``{"jobs": [...]}``)
    — optionally in parallel and against a persistent cache::

        python -m repro run examples/jobs/quickstart_job.json \\
            --workers 4 --cache-dir .repro-cache --out results.json

``repro sweep --study use_case_count --benchmark spread --counts 2,5,10``
    Build and run one :class:`~repro.jobs.spec.SweepJob` from flags.

``repro worst-case design.json``
    Map a use-case-set file with the worst-case baseline.

``repro failures DESIGN.json [--provision RxC] [--baseline RESULT.json]``
    Failure-sweep analysis: enumerate every single link/switch failure of
    the baseline mapping's topology (or just the failures named with
    ``--fail-link A,B`` / ``--fail-switch N``) and report which break
    schedulability, how many groups each repair had to remap, and at what
    cost (:mod:`repro.analysis.failures`)::

        python -m repro failures examples/designs/mesh_2x2_design.json \\
            --provision 3x3
        python -m repro failures design.json --provision 3x3 \\
            --fail-link 0,1 --compare

``repro gap DESIGN.json [--solver auto|pulp|native] [--report-dir DIR]``
    Optimality-gap measurement: run the exact backend
    (:mod:`repro.optimize.ilp`) next to the ordinary heuristic mapping of
    the same design (and, with ``--refine-iterations N``, an annealing
    refinement of it) and report heuristic-vs-optimal cost gaps.
    ``--report-dir DIR`` writes a byte-deterministic ``gap_report.json``
    plus a ``gap_report.md`` digest; ``--spread N`` generates a synthetic
    design instead of reading a file.  Exact search is exponential — meant
    for small/medium specs (``--node-limit`` bounds it)::

        python -m repro gap examples/designs/mesh_2x2_design.json \\
            --solver native --report-dir gap-out

``repro campaign run|report|status CAMPAIGN.json [--out-dir DIR]``
    Drive a declarative study matrix (:mod:`repro.campaign`): ``run``
    executes the campaign's expanded cells resumably (settled cells under
    ``OUT/cells/`` are never re-executed) and reduces them into a ranked,
    byte-deterministic ``report.json``, a markdown digest and an appended
    ``trajectory.jsonl`` line; ``report`` re-reduces from whatever cells
    are settled; ``status`` prints progress read-only.  ``--submit INBOX``
    fans the pending cells out to a ``repro serve`` inbox instead of
    executing locally, and ``--collect INBOX`` folds the farm's result
    envelopes back in before executing the remainder::

        python -m repro campaign run study.json --workers 4
        python -m repro campaign status study.json

``repro serve INBOX [--once] [--poll-interval S] [--status]``
    Run the job-directory service loop
    (:class:`~repro.jobs.service.JobDirectoryService`): watch ``INBOX`` for
    ``*.json`` job specs, execute them, settle them into ``done/`` or
    ``failed/`` and append to ``INBOX/manifest.jsonl`` (rotated at a size
    threshold).  ``--once`` drains the inbox and exits (what CI and tests
    drive); without it the service polls until interrupted.  Transiently
    failing files (crashes, timeouts, corrupt results) are retried with
    backoff up to ``--max-attempts`` and then quarantined;
    ``--job-timeout S`` runs each attempt in a terminable child process.
    ``--status`` prints the inbox's aggregate state (file counts, the whole
    rotated manifest history, retry/quarantine totals) read-only and
    exits; given several inboxes it adds a fleet summary across all of
    them, and with ``--cache-dir`` the engine-state store's footprint
    (without creating it)::

        python -m repro serve jobs-inbox --once --workers 4 \\
            --cache-dir .repro-cache
        python -m repro serve jobs-inbox --status

``repro monitor INBOX --probe-script F [--period S] [--once] [--replay]``
    Run the live-operations loop (:class:`repro.ops.Monitor`): poll the
    probe source every ``--period`` seconds, append observed link/switch
    failures, heals and traffic re-characterisations to the crash-
    replayable ``INBOX/monitor/events.jsonl``, and enqueue a warm
    :class:`~repro.jobs.spec.RepairJob` into ``INBOX`` for every change
    (escalated to a full remap when the splice repair reports
    unrepairable use cases).  ``--replay`` reconstructs monitor state
    purely from the event log (``--replay-out FILE`` writes bytes
    identical to the live ``state.json``)::

        python -m repro monitor jobs-inbox --probe-script probe.json \\
            --spread 8 --provision 3x3 --once --cache-dir .repro-cache
        python -m repro monitor jobs-inbox --replay

Every subcommand accepts ``--workers N`` (process-pool fan-out) and
``--cache-dir DIR`` (persistent result cache; executions additionally
warm-start from the cache's engine-state store unless ``--no-seed`` is
given); all but ``serve`` also take ``--out FILE`` (write the full
:class:`~repro.jobs.runner.JobResult` envelopes as JSON — ``serve`` writes
per-file envelopes into ``INBOX/results/`` instead).  A short
human-readable digest always goes to stdout.  Exit status is 0 on success
and 1 on any error (for ``serve --once``: if any submitted file failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def _fail(message: str) -> int:
    """The one-line CLI diagnostic contract: ``error: ...`` on stderr, 1.

    Every subcommand funnels its own early validation through this helper
    (and :func:`main` routes raised :class:`ReproError`/:class:`OSError`
    through the same shape), so a malformed spec — campaign, job file,
    design — always dies with a single diagnostic line, never a traceback.
    """
    print(f"error: {message}", file=sys.stderr)
    return 1


def _add_common_options(
    parser: argparse.ArgumentParser, include_out: bool = True
) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process-pool workers for job execution (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory of the persistent result cache (created if missing); "
             "already-computed jobs are returned from disk instead of re-run, "
             "and executions read previously computed engine state from the "
             "cache's engine-state store",
    )
    parser.add_argument(
        "--no-seed", action="store_true",
        help="do not warm-start executions from the cache's engine-state "
             "store; executions still write what they computed to it (only "
             "meaningful with --cache-dir)",
    )
    if include_out:
        parser.add_argument(
            "--out", default=None, metavar="FILE",
            help="write the full JSON result envelopes to FILE",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative job runner for the multi-use-case NoC mapping "
                    "methodology (Murali et al., DATE 2006 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute one or more job JSON files",
        description="Execute job files; each may hold a single job object, a "
                    "list of jobs, or a {\"jobs\": [...]} wrapper.",
    )
    run.add_argument("job_files", nargs="+", metavar="JOB.json")
    _add_common_options(run)

    sweep = commands.add_parser(
        "sweep", help="run one analysis study without writing a job file",
    )
    sweep.add_argument(
        "--study", default="use_case_count",
        help="study name (default: use_case_count); see repro.jobs.SWEEP_STUDIES",
    )
    sweep.add_argument("--benchmark", default="spread",
                       help="synthetic benchmark family (spread / bottleneck)")
    sweep.add_argument("--counts", default=None, metavar="N,N,...",
                       help="comma-separated use-case counts for the sweep")
    sweep.add_argument("--core-count", type=int, default=20)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.add_argument("--design", default=None, metavar="DESIGN.json",
                       help="use-case-set file (required by the ablation studies)")
    _add_common_options(sweep)

    worst = commands.add_parser(
        "worst-case", help="map a use-case-set file with the worst-case baseline",
    )
    worst.add_argument("design_file", metavar="DESIGN.json")
    _add_common_options(worst)

    refine = commands.add_parser(
        "refine", help="map a design and refine its placement, optionally "
                       "with a portfolio of chains",
        description="Unified mapping followed by annealing/tabu refinement. "
                    "--chains N (N >= 2) runs a portfolio of N diversified "
                    "chains sharing one engine-state store and keeps the "
                    "deterministic best-of.",
    )
    refine.add_argument("design_file", nargs="?", default=None, metavar="DESIGN.json",
                        help="use-case-set file to refine")
    refine.add_argument(
        "--spread", type=int, default=None, metavar="N",
        help="generate a spread benchmark with N use cases instead of "
             "reading a design file",
    )
    refine.add_argument("--design-seed", type=int, default=3, metavar="S",
                        help="generator seed for --spread (default: 3)")
    refine.add_argument("--method", choices=("annealing", "tabu"),
                        default="annealing")
    refine.add_argument("--iterations", type=int, default=200, metavar="N",
                        help="refinement iterations per chain (default: 200)")
    refine.add_argument("--seed", type=int, default=0, metavar="S",
                        help="refinement seed; chain i refines with seed+i")
    refine.add_argument(
        "--chains", type=int, default=1, metavar="N",
        help="refinement chains (default: 1 = a plain refine job; the "
             "1-chain portfolio payload is bit-identical to it)",
    )
    refine.add_argument(
        "--chain-workers", type=int, default=0, metavar="N",
        help="process-pool workers for the portfolio's chains "
             "(default: 0, chains run serially; payloads are identical)",
    )
    _add_common_options(refine)

    gap = commands.add_parser(
        "gap", help="measure the heuristic-vs-optimal mapping cost gap",
        description="Run the exact backend (repro.optimize.ilp) next to the "
                    "ordinary heuristic mapping of the same design and report "
                    "optimality gaps.  Exact search is exponential: meant for "
                    "small/medium specs.",
    )
    gap.add_argument("design_file", nargs="?", default=None, metavar="DESIGN.json",
                     help="use-case-set file to measure")
    gap.add_argument(
        "--spread", type=int, default=None, metavar="N",
        help="generate a spread benchmark with N use cases instead of "
             "reading a design file",
    )
    gap.add_argument("--design-seed", type=int, default=3, metavar="S",
                     help="generator seed for --spread (default: 3)")
    gap.add_argument(
        "--core-count", type=int, default=None, metavar="N",
        help="core count for --spread (default: the generator's default; "
             "exact search is exponential in this)",
    )
    gap.add_argument(
        "--flows", default=None, metavar="MIN,MAX",
        help="flows-per-use-case range for --spread (default: the "
             "generator's default, which needs >= 11 cores)",
    )
    gap.add_argument(
        "--solver", choices=("auto", "pulp", "native"), default="auto",
        help="exact solver: 'pulp' (CBC MILP, needs the optional 'pulp' "
             "dependency), 'native' (pure-Python branch-and-bound), or "
             "'auto' = pulp if importable else native (default)",
    )
    gap.add_argument(
        "--refine-iterations", type=int, default=0, metavar="N",
        help="also refine the heuristic result for N annealing iterations "
             "and report its gap (default: 0 = skip)",
    )
    gap.add_argument("--seed", type=int, default=0, metavar="S",
                     help="refinement seed (default: 0)")
    gap.add_argument(
        "--node-limit", type=int, default=None, metavar="N",
        help="abort the exact search after expanding N nodes (native "
             "solver) / N lazy cuts (pulp); unbounded by default",
    )
    gap.add_argument(
        "--report-dir", default=None, metavar="DIR",
        help="write a byte-deterministic gap_report.json plus a "
             "gap_report.md digest into DIR",
    )
    _add_common_options(gap)

    failures = commands.add_parser(
        "failures", help="failure-sweep analysis of a design's baseline mapping",
        description="Repair the baseline mapping around single link/switch "
                    "failures and report which failures break schedulability. "
                    "Without --fail-link/--fail-switch, every single failure "
                    "of the baseline topology is swept.",
    )
    failures.add_argument("design_file", metavar="DESIGN.json",
                          help="use-case-set file to analyse")
    failures.add_argument(
        "--baseline", default=None, metavar="RESULT.json",
        help="mapping-result file to repair (default: compute a baseline)",
    )
    failures.add_argument(
        "--provision", default=None, metavar="RxC",
        help="mesh dimensions (e.g. 3x3) to compute the baseline on; fault "
             "tolerance needs spare capacity — on the minimal mesh most "
             "failures are unsurvivable by construction",
    )
    failures.add_argument(
        "--fail-link", action="append", default=None, metavar="A,B",
        help="fail one specific link (both directions); repeatable",
    )
    failures.add_argument(
        "--fail-switch", action="append", default=None, metavar="N",
        help="fail one specific switch; repeatable",
    )
    failures.add_argument(
        "--links-only", action="store_true",
        help="sweep only link failures",
    )
    failures.add_argument(
        "--switches-only", action="store_true",
        help="sweep only switch failures",
    )
    failures.add_argument(
        "--frequencies", default=None, metavar="MHZ,MHZ,...",
        help="repeat the sweep at these NoC clock frequencies (MHz)",
    )
    failures.add_argument(
        "--compare", action="store_true",
        help="with --fail-link/--fail-switch: also run and report the "
             "from-scratch remap of the degraded topology",
    )
    _add_common_options(failures)

    campaign = commands.add_parser(
        "campaign", help="run, reduce or inspect a declarative study matrix",
        description="Campaigns declare workloads x methods x parameter sets "
                    "as one JSON file (repro.campaign.CampaignSpec) and run "
                    "the expanded cells resumably through the job fabric: "
                    "completed cells are settled under OUT/cells/ keyed by "
                    "job hash, so re-running after a crash executes zero of "
                    "them again.  'run' executes and reduces into "
                    "OUT/report.json + OUT/report.md + OUT/trajectory.jsonl; "
                    "'report' re-reduces from the settled cells (tolerating "
                    "missing ones); 'status' prints progress read-only.",
    )
    campaign.add_argument("action", choices=("run", "report", "status"),
                          metavar="ACTION",
                          help="run | report | status")
    campaign.add_argument("campaign_file", metavar="CAMPAIGN.json",
                          help="campaign spec file")
    campaign.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="campaign directory for cells/cache/report artifacts "
             "(default: CAMPAIGN.json's name next to it, e.g. study.campaign/)",
    )
    campaign.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="execute at most N pending cells this run (settled cells are "
             "free); the report is only written once every cell is settled",
    )
    campaign.add_argument(
        "--trajectory", default=None, metavar="FILE",
        help="append the run's history line to FILE instead of "
             "OUT/trajectory.jsonl (e.g. a single tracked trajectory file)",
    )
    campaign.add_argument(
        "--submit", default=None, metavar="INBOX",
        help="with ACTION=run: drop the pending cells' job specs into a "
             "'repro serve' INBOX and exit instead of executing locally",
    )
    campaign.add_argument(
        "--collect", default=None, metavar="INBOX",
        help="with ACTION=run: first fold the INBOX's result envelopes into "
             "settled cells, then execute whatever is still pending",
    )
    _add_common_options(campaign, include_out=False)

    serve = commands.add_parser(
        "serve", help="watch a job inbox directory and execute submitted specs",
        description="Run the job-directory service: *.json specs dropped into "
                    "INBOX are executed and settled into INBOX/done/ or "
                    "INBOX/failed/, with result envelopes in INBOX/results/ "
                    "and a rolling INBOX/manifest.jsonl.",
    )
    serve.add_argument("inbox", nargs="+", metavar="INBOX",
                       help="inbox directory to watch (created if missing); "
                            "--status accepts several and prints a fleet "
                            "summary across all of them")
    serve.add_argument(
        "--once", action="store_true",
        help="drain the inbox once and exit instead of polling forever",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=1.0, metavar="S",
        help="seconds to sleep between inbox polls (default: 1.0)",
    )
    serve.add_argument(
        "--status", action="store_true",
        help="print the inbox's aggregate state (pending/running/done/failed "
             "counts and manifest history, rotated segments included) and "
             "exit without touching anything",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="executions per file before a transiently failing job is "
             "quarantined into failed/ (default: 3)",
    )
    serve.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="S",
        help="base sleep between attempts, doubled each retry (default: 0.05)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget; attempts run in a terminable "
             "child process when set (default: no timeout, in-process)",
    )
    _add_common_options(serve, include_out=False)

    monitor = commands.add_parser(
        "monitor", help="probe the network periodically and enqueue warm "
                        "repair jobs into a serve inbox",
        description="Run the live-operations loop (repro.ops.Monitor): poll a "
                    "probe source for link/switch failures and per-flow "
                    "traffic readings, append the deltas to the crash-"
                    "replayable INBOX/monitor/events.jsonl, and enqueue a "
                    "warm RepairJob into INBOX for every observed change "
                    "(escalated to a full remap when the splice repair "
                    "reports unrepairable use cases).  --replay reconstructs "
                    "the monitor state purely from the event log and prints "
                    "it, probing nothing.",
    )
    monitor.add_argument("inbox", metavar="INBOX",
                         help="'repro serve' inbox to enqueue repair jobs "
                              "into (created if missing)")
    monitor.add_argument(
        "--probe-script", default=None, metavar="FILE",
        help="repro/probe-script@1 file: one scripted observation per poll, "
             "clamping at the last step (the deterministic probe source)",
    )
    monitor.add_argument("--design", default=None, metavar="DESIGN.json",
                         help="use-case-set file of the deployed design")
    monitor.add_argument(
        "--spread", type=int, default=None, metavar="N",
        help="generate a spread benchmark with N use cases instead of "
             "reading a design file",
    )
    monitor.add_argument("--design-seed", type=int, default=3, metavar="S",
                         help="generator seed for --spread (default: 3)")
    monitor.add_argument(
        "--provision", default=None, metavar="RxC",
        help="mesh dimensions (e.g. 3x3) the baseline is computed on; fault "
             "tolerance needs spare capacity, so deployments should "
             "provision",
    )
    monitor.add_argument("--period", type=float, default=5.0, metavar="S",
                         help="seconds between probe polls (default: 5.0)")
    monitor.add_argument("--once", action="store_true",
                         help="poll exactly once and exit")
    monitor.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="exit after N polls (default: poll until interrupted)",
    )
    monitor.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="directory for events.jsonl and state.json "
             "(default: INBOX/monitor/)",
    )
    monitor.add_argument(
        "--replay", action="store_true",
        help="reconstruct monitor state from the event log and print it; "
             "probes nothing, writes nothing unless --replay-out is given",
    )
    monitor.add_argument(
        "--replay-out", default=None, metavar="FILE",
        help="with --replay: write the reconstructed state's canonical "
             "bytes to FILE (byte-identical to the live state.json)",
    )
    _add_common_options(monitor, include_out=False)

    return parser


def _print_result(result, index: int, total: int) -> None:
    origin = "cache" if result.cached else f"{result.elapsed_s:.2f}s"
    print(f"[{index + 1}/{total}] {result.kind}  spec={result.spec_hash[:12]}  ({origin})")
    payload = result.payload
    if "summary" in payload:
        summary = payload["summary"]
        print(f"    topology {summary['topology']}  switches {summary['switch_count']}  "
              f"groups {summary['groups']}  max-util {summary['max_utilization']}")
    if payload.get("mapped") is False:
        print(f"    MAPPING FAILED: {payload.get('error', 'unknown error')}")
    if "required_frequency_mhz" in payload:
        frequency = payload["required_frequency_mhz"]
        print("    required frequency: "
              + ("unachievable on the grid" if frequency is None else f"{frequency:g} MHz"))
    if "refined_cost" in payload:
        print(f"    refinement: cost {payload['initial_cost']:.4g} -> "
              f"{payload['refined_cost']:.4g} "
              f"({payload['accepted_moves']} accepted moves)")
    if "portfolio" in payload:
        portfolio = payload["portfolio"]
        costs = ", ".join(
            f"{entry['refined_cost']:.4g}" if entry.get("mapped") else "failed"
            for entry in portfolio["chain_results"]
        )
        print(f"    portfolio: best of {portfolio['chains']} chain(s) = "
              f"chain {portfolio['best_chain']}  [{costs}]")
    if "repair" in payload:
        repair = payload["repair"]
        print(f"    repair: {repair['failures']}  "
              f"remapped {repair['groups_remapped']}/{repair['groups_total']} group(s)  "
              f"displaced {len(repair['displaced_cores'])} core(s)")
        if repair.get("repaired"):
            delta = repair.get("cost_delta")
            print(f"    repaired on {repair['degraded_topology']}"
                  + ("" if delta is None else f"  cost delta {delta:+.4g}"))
        else:
            names = ", ".join(repair.get("unrepairable", ())) or "all use cases"
            print(f"    UNREPAIRABLE: {names}")
    if "gap" in payload:
        gap = payload["gap"]
        exact = gap["exact"]
        validated = "validated" if gap.get("validated") else "VALIDATION FAILED"
        print(f"    exact ({gap['solver']}): cost {exact['cost']:.6g} on "
              f"{exact['topology']}  [{validated}]")
        for label, key in (("heuristic", "heuristic"), ("refined", "refined")):
            entry = gap.get(key)
            if entry is None:
                continue
            if entry.get("mapped") is False:
                print(f"    {label}: MAPPING FAILED: {entry.get('error', 'unknown')}")
                continue
            print(f"    {label}: cost {entry['cost']:.6g}  "
                  f"gap {entry['gap_absolute']:+.6g} "
                  f"({entry['gap_relative'] * 100:.2f}%)")
    if "rows" in payload:
        from repro.io.report import format_rows

        print(format_rows(payload["rows"]))
    if "headline" in payload:
        from repro.io.report import format_summary

        print(format_summary(payload["headline"]))


def _run_jobs(jobs, args, base_dir: Optional[Path] = None) -> int:
    code, _results = _execute_jobs(jobs, args, base_dir)
    return code


def _execute_jobs(jobs, args, base_dir: Optional[Path] = None):
    """Run ``jobs``, print/persist them, and return ``(exit_code, results)``.

    Commands that post-process payloads (``gap`` writes report files) use
    this directly; plain commands go through :func:`_run_jobs`.
    """
    from repro.jobs.runner import JobRunner

    if args.out:
        # Fail before executing anything: discovering a bad --out only after
        # minutes of mapping would throw the results away.
        out_parent = Path(args.out).absolute().parent
        if not out_parent.is_dir():
            return _fail(f"--out directory {out_parent} does not exist"), []
    runner = JobRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        base_dir=base_dir,
        seed_engines=args.cache_dir is not None and not args.no_seed,
    )
    results = runner.run_many(jobs)
    for index, result in enumerate(results):
        _print_result(result, index, len(results))
    if args.out:
        target = Path(args.out)
        target.write_text(json.dumps([result.to_dict() for result in results], indent=2))
        print(f"wrote {len(results)} result(s) to {target}")
    if args.cache_dir:
        cached = sum(1 for result in results if result.cached)
        print(f"cache: {cached} hit(s), {runner.executed_jobs} executed, "
              f"dir {args.cache_dir}")
    return 0, results


def _command_run(args) -> int:
    from repro.jobs.spec import load_jobs

    jobs = []
    for job_file in args.job_files:
        jobs.extend(load_jobs(job_file))
    if not jobs:
        return _fail("no jobs found in the given file(s)")
    return _run_jobs(jobs, args)


def _command_sweep(args) -> int:
    from repro.jobs.spec import SweepJob, UseCaseSource

    knobs = {}
    if args.counts:
        knobs["use_case_counts"] = tuple(
            int(value) for value in args.counts.split(",") if value.strip()
        )
    job = SweepJob(
        study=args.study,
        benchmark=args.benchmark,
        core_count=args.core_count,
        seed=args.seed,
        use_cases=None if args.design is None else UseCaseSource(path=args.design),
        **knobs,
    )
    return _run_jobs([job], args)


def _command_worst_case(args) -> int:
    from repro.jobs.spec import UseCaseSource, WorstCaseJob

    job = WorstCaseJob(use_cases=UseCaseSource(path=args.design_file))
    return _run_jobs([job], args)


def _command_refine(args) -> int:
    from repro.jobs.spec import PortfolioRefineJob, RefineJob, UseCaseSource

    if (args.design_file is None) == (args.spread is None):
        return _fail("refine needs a DESIGN.json file or --spread N (not both)")
    if args.design_file is not None:
        source = UseCaseSource(path=args.design_file)
    else:
        source = UseCaseSource(generator={
            "kind": "spread",
            "use_case_count": args.spread,
            "seed": args.design_seed,
        })
    if args.chains > 1:
        job = PortfolioRefineJob(
            use_cases=source,
            method=args.method,
            iterations=args.iterations,
            seed=args.seed,
            chains=args.chains,
            workers=args.chain_workers,
        )
    else:
        job = RefineJob(
            use_cases=source,
            method=args.method,
            iterations=args.iterations,
            seed=args.seed,
        )
    return _run_jobs([job], args)


def _design_label(job) -> str:
    source = job.use_cases
    if source.path is not None:
        return source.path
    if source.generator is not None:
        recipe = source.generator
        label = f"{recipe.get('kind', '?')}-{recipe.get('use_case_count', '?')}"
        if "core_count" in recipe:
            label += f"-c{recipe['core_count']}"
        if "seed" in recipe:
            label += f"-s{recipe['seed']}"
        return label
    return "inline"


def _gap_cell(entry, exact_cost: bool = False):
    if entry is None:
        return "-", "-"
    if entry.get("mapped") is False:
        return "failed", "-"
    cost = f"{entry['cost']:.6g}"
    if exact_cost:
        return cost, "-"
    return cost, f"{entry['gap_relative'] * 100:.2f}%"


def _gap_report_document(jobs, results):
    """Byte-deterministic report document + markdown digest for ``gap``.

    Built purely from job payloads (which are canonical JSON) and spec
    hashes; volatile per-run data (timings, cache provenance) lives only
    in the result envelopes, never here.
    """
    cells = []
    for job, result in zip(jobs, results):
        payload = result.payload
        cells.append({
            "design": _design_label(job),
            "job_hash": result.spec_hash,
            "summary": payload.get("summary"),
            "gap": payload.get("gap"),
        })
    document = {"schema": "repro/gap-report@1", "cells": cells}

    lines = [
        "# Optimality gap report",
        "",
        "| design | solver | exact cost | heuristic cost | gap | "
        "refined cost | refined gap |",
        "|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        gap = cell["gap"] or {}
        exact_cost, _ = _gap_cell(gap.get("exact"), exact_cost=True)
        heuristic_cost, heuristic_gap = _gap_cell(gap.get("heuristic"))
        refined_cost, refined_gap = _gap_cell(gap.get("refined"))
        lines.append(
            f"| {cell['design']} | {gap.get('solver', '-')} | {exact_cost} "
            f"| {heuristic_cost} | {heuristic_gap} "
            f"| {refined_cost} | {refined_gap} |"
        )
    lines += [
        "",
        "Gaps are (cost - exact cost) / exact cost; 0.00% means the "
        "heuristic found an optimal mapping.",
    ]
    return document, "\n".join(lines) + "\n"


def _command_gap(args) -> int:
    from repro.jobs.spec import GapJob, UseCaseSource

    if (args.design_file is None) == (args.spread is None):
        return _fail("gap needs a DESIGN.json file or --spread N (not both)")
    if args.solver == "pulp":
        from repro.optimize.ilp import available_solvers

        if "pulp" not in available_solvers():
            return _fail("the 'pulp' solver needs the optional dependency "
                         "'pulp' (pip install 'repro-noc[ilp]') — or use "
                         "--solver native")
    if args.design_file is not None:
        source = UseCaseSource(path=args.design_file)
    else:
        recipe = {
            "kind": "spread",
            "use_case_count": args.spread,
            "seed": args.design_seed,
        }
        if args.core_count is not None:
            recipe["core_count"] = args.core_count
        if args.flows is not None:
            parts = args.flows.split(",")
            if len(parts) != 2:
                return _fail("--flows expects MIN,MAX (e.g. 12,24)")
            try:
                recipe["flows_per_use_case"] = [int(part) for part in parts]
            except ValueError:
                return _fail("--flows expects MIN,MAX (e.g. 12,24)")
        source = UseCaseSource(generator=recipe)
    job = GapJob(
        use_cases=source,
        solver=args.solver,
        refine_iterations=args.refine_iterations,
        seed=args.seed,
        node_limit=args.node_limit,
    )
    code, results = _execute_jobs([job], args)
    if code != 0:
        return code
    failed = [r for r in results if r.payload.get("mapped") is False]
    if failed:
        return _fail("design cannot be mapped exactly: "
                     f"{failed[0].payload.get('error', 'unknown error')}")
    if args.report_dir is not None:
        report_dir = Path(args.report_dir)
        report_dir.mkdir(parents=True, exist_ok=True)
        document, digest = _gap_report_document([job], results)
        report_path = report_dir / "gap_report.json"
        report_path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        digest_path = report_dir / "gap_report.md"
        digest_path.write_text(digest)
        print(f"report {report_path}  digest {digest_path}")
    return 0


def _parse_provision(value: Optional[str]):
    if value is None:
        return None
    from repro.exceptions import SpecificationError

    parts = value.lower().replace("x", ",").split(",")
    try:
        rows, cols = (int(part) for part in parts)
    except ValueError:
        raise SpecificationError(
            f"--provision expects RxC mesh dimensions (e.g. 3x3), got {value!r}"
        ) from None
    return (rows, cols)


def _parse_failure_flags(args) -> Optional[dict]:
    """The explicit ``--fail-link/--fail-switch`` flags as a FailureSet doc."""
    if not args.fail_link and not args.fail_switch:
        return None
    from repro.exceptions import SpecificationError

    links = []
    for value in args.fail_link or ():
        parts = value.split(",")
        try:
            source, destination = (int(part) for part in parts)
        except ValueError:
            raise SpecificationError(
                f"--fail-link expects two switch indices A,B, got {value!r}"
            ) from None
        links.extend([[source, destination], [destination, source]])
    try:
        switches = [int(value) for value in args.fail_switch or ()]
    except ValueError as exc:
        raise SpecificationError(f"--fail-switch expects a switch index: {exc}") from None
    return {"links": links, "switches": switches}


def _command_failures(args) -> int:
    explicit = _parse_failure_flags(args)
    provision = _parse_provision(args.provision)
    if explicit is not None:
        # One concrete failure set: run it as a RepairJob so caching, pool
        # workers and --out behave exactly like `repro run`.
        from repro.jobs.spec import RepairJob, UseCaseSource

        job = RepairJob(
            use_cases=UseCaseSource(path=args.design_file),
            failures=explicit,
            baseline=None if args.baseline is None else {"path": args.baseline},
            provision=provision,
            compare_full_remap=args.compare,
        )
        return _run_jobs([job], args)

    from repro.analysis.failures import failure_sweep
    from repro.core.engine import MappingEngine
    from repro.io.serialization import load_mapping_result, load_use_case_set

    use_cases = load_use_case_set(args.design_file)
    baseline = None if args.baseline is None else load_mapping_result(args.baseline)
    engine = MappingEngine()
    if args.cache_dir is not None and not args.no_seed:
        from repro.jobs.cache import JobCache

        engine.attach_store(JobCache(args.cache_dir).store)
    frequencies = None
    if args.frequencies:
        frequencies = [float(value) for value in args.frequencies.split(",")
                       if value.strip()]
    rows = failure_sweep(
        use_cases,
        baseline=baseline,
        engine=engine,
        provision=provision,
        include_links=not args.switches_only,
        include_switches=not args.links_only,
        frequencies_mhz=frequencies,
    )
    documents = [row.as_dict() for row in rows]
    from repro.io.report import format_rows

    print(format_rows(documents))
    broken = [row for row in rows if not row.schedulable]
    print(f"{len(rows)} failure(s) swept, {len(broken)} break schedulability")
    if args.out:
        Path(args.out).write_text(json.dumps(documents, indent=2))
        print(f"wrote {len(documents)} row(s) to {args.out}")
    return 0


def _command_campaign(args) -> int:
    from repro.campaign import CampaignRunner, campaign_hash, load_campaign

    spec = load_campaign(args.campaign_file)
    source = Path(args.campaign_file)
    out_dir = (
        Path(args.out_dir) if args.out_dir
        else source.with_suffix(".campaign")
    )
    runner = CampaignRunner(
        out_dir,
        workers=args.workers,
        cache_dir=args.cache_dir,
        seed_engines=not args.no_seed,
        trajectory_path=args.trajectory,
    )
    print(f"campaign {spec.name}  hash {campaign_hash(spec)[:16]}  "
          f"{spec.cell_count()} cell(s)  dir {out_dir}")

    if args.action == "status":
        status = runner.status(spec)
        print(f"{status['done']}/{status['cells']} cell(s) settled, "
              f"{status['pending']} pending"
              + ("; report written" if status["report_written"] else ""))
        for method, counts in sorted(status["by_method"].items()):
            print(f"  {method}: {counts['done']} done, "
                  f"{counts['pending']} pending")
        for cell_id in status["pending_cells"][:10]:
            print(f"  pending: {cell_id}")
        if len(status["pending_cells"]) > 10:
            print(f"  ... and {len(status['pending_cells']) - 10} more")
        return 0

    if args.action == "report":
        outcome = runner.reduce(spec, write_trajectory=False)
        print(f"report {outcome['report']}  digest {outcome['digest']}"
              + (f"  ({outcome['missing']} cell(s) missing)"
                 if outcome["missing"] else ""))
        return 0

    # action == "run"
    if args.submit and args.collect:
        return _fail("--submit and --collect are mutually exclusive")
    if args.submit:
        submitted = runner.submit(spec, args.submit)
        print(f"submitted {len(submitted)} pending cell(s) to {args.submit}")
        return 0
    if args.collect:
        folded = runner.collect(spec, args.collect)
        print(f"collected {folded['collected']} cell(s) from {args.collect}; "
              f"{folded['pending']} still pending")
    summary = runner.run(spec, max_cells=args.max_cells)
    print(f"executed {summary['executed']} cell(s), resumed "
          f"{summary['resumed']} from {runner.cells_dir}"
          + (f", {summary['pending']} still pending" if summary["pending"] else ""))
    if summary["pending"]:
        print("report deferred until every cell is settled "
              "(re-run without --max-cells, or collect the farm results)")
        return 0
    print(f"report {summary['report']}  digest {summary['digest']}")
    entry = summary.get("trajectory_entry")
    if entry is not None:
        best = ", ".join(
            f"{workload}={details['cost']:g}"
            for workload, details in sorted(entry["best_known"].items())
        )
        print(f"trajectory +1 line -> {summary['trajectory']}"
              + (f"  best known: {best}" if best else ""))
    return 0


def _print_service_record(record) -> None:
    if record["status"] == "failed":
        marker = "quarantined" if record.get("quarantined") else "failed"
        attempts = record.get("attempts", 1)
        suffix = f"  ({attempts} attempt(s))" if attempts > 1 else ""
        print(f"[{marker}] {record['file']}  "
              f"{record.get('error', 'unknown error')}{suffix}")
        return
    print(f"[done] {record['file']}  {record['jobs']} job(s)  "
          f"{record['cached']} cached  {record['executed']} executed  "
          f"({record['elapsed_s']:.2f}s)")


def _print_status(status) -> None:
    files = status["files"]
    manifest = status["manifest"]
    print(f"inbox {status['inbox']}: {files['pending']} pending, "
          f"{files['running']} running, {files['done']} done, "
          f"{files['failed']} failed")
    print(f"manifest: {manifest['records']} record(s) in "
          f"{manifest['segments']} segment(s); {manifest['jobs']} job(s), "
          f"{manifest['cached']} cached, {manifest['executed']} executed, "
          f"{manifest['failed']} failed file(s)")
    retries = status.get("retries", {})
    if retries.get("files_retried"):
        print(f"retries: {retries['files_retried']} file(s) retried, "
              f"{retries['extra_attempts']} extra attempt(s)")
    for entry in status.get("quarantined", ()):
        print(f"[quarantined] {entry['file']}  after {entry['attempts']} "
              f"attempt(s): {entry['error']}")
    monitor = status.get("monitor")
    if monitor is not None:
        if "error" in monitor:
            print(f"monitor: event log unreadable: {monitor['error']}")
        else:
            print(f"monitor: {monitor['events']} event(s), "
                  f"{monitor['enqueued']} job(s) enqueued; "
                  f"failures: {monitor['failures']}; "
                  f"{monitor['traffic_overrides']} traffic override(s)")
            last_enqueued = monitor.get("last_enqueued")
            if last_enqueued is not None:
                print(f"monitor last enqueue: {last_enqueued['file']} "
                      f"({last_enqueued['action']})")
    last = status["last_record"]
    if last is not None:
        _print_service_record(last)


def _print_fleet_status(fleet) -> None:
    for status in fleet["inboxes"]:
        _print_status(status)
    totals = fleet["totals"]
    if totals["inboxes"] > 1:
        files = totals["files"]
        manifest = totals["manifest"]
        print(f"fleet: {totals['inboxes']} inboxes, {files['pending']} pending, "
              f"{files['running']} running, {files['done']} done, "
              f"{files['failed']} failed"
              + (f", {totals['quarantined']} quarantined"
                 if totals["quarantined"] else ""))
        print(f"fleet manifest: {manifest['records']} record(s), "
              f"{manifest['jobs']} job(s), {manifest['cached']} cached, "
              f"{manifest['executed']} executed")
    store = fleet["store"]
    if store is not None:
        print(f"engine-state store {store['directory']}: "
              f"{store['results']} result(s), {store['evaluations']} "
              f"evaluation(s) in {store['evaluation_contexts']} context(s), "
              f"{store['bytes']} bytes")


def _command_serve(args) -> int:
    from repro.jobs.service import JobDirectoryService, fleet_status

    if args.status:
        _print_fleet_status(fleet_status(args.inbox, cache_dir=args.cache_dir))
        return 0
    if len(args.inbox) > 1:
        return _fail("serve executes one INBOX at a time "
                     "(several are only meaningful with --status)")
    service = JobDirectoryService(
        args.inbox[0],
        workers=args.workers,
        cache_dir=args.cache_dir,
        seed_engines=not args.no_seed,
        max_attempts=args.max_attempts,
        retry_backoff_s=args.retry_backoff,
        job_timeout_s=args.job_timeout,
    )
    if args.once:
        records = service.run_once()
        for record in records:
            _print_service_record(record)
        failures = sum(1 for record in records if record["status"] == "failed")
        print(f"processed {len(records)} file(s), {failures} failed; "
              f"manifest {service.manifest_path}")
        return 1 if failures else 0
    print(f"serving {service.inbox} "
          f"(poll every {args.poll_interval:g}s; Ctrl-C to stop)")
    try:
        service.serve_forever(poll_interval=args.poll_interval)
    except KeyboardInterrupt:
        print(f"\nstopped after {service.processed_files} file(s)")
    return 0


def _command_monitor(args) -> int:
    from repro.jobs.spec import UseCaseSource

    if args.replay:
        from repro.ops.events import canonical_state_bytes, replay_events

        state_dir = (
            Path(args.state_dir) if args.state_dir
            else Path(args.inbox) / "monitor"
        )
        events_path = state_dir / "events.jsonl"
        state = replay_events(events_path)
        payload = canonical_state_bytes(state)
        if args.replay_out:
            Path(args.replay_out).write_bytes(payload)
            print(f"replayed {state.seq} event(s) from {events_path} "
                  f"-> {args.replay_out}")
        else:
            print(payload.decode(), end="")
        return 0

    if (args.design is None) == (args.spread is None):
        return _fail("monitor needs a --design DESIGN.json or --spread N "
                     "(not both)")
    if args.probe_script is None:
        return _fail("monitor needs --probe-script FILE (the process-"
                     "callback source is Python-API only: "
                     "repro.ops.CallbackProbeSource)")
    if args.design is not None:
        # Resolved: the enqueued job files are executed from the inbox's
        # running/ directory, where a relative design path would not load.
        source = UseCaseSource(path=str(Path(args.design).resolve()))
    else:
        source = UseCaseSource(generator={
            "kind": "spread",
            "use_case_count": args.spread,
            "seed": args.design_seed,
        })
    from repro.ops.monitor import Monitor
    from repro.ops.probe import ScriptProbeSource

    store_path = None
    if args.cache_dir is not None and not args.no_seed:
        from repro.jobs.cache import JobCache

        store_path = JobCache(args.cache_dir).store.directory
    monitor = Monitor(
        args.inbox,
        ScriptProbeSource(args.probe_script),
        source,
        provision=_parse_provision(args.provision),
        period_s=args.period,
        state_dir=args.state_dir,
        store_path=store_path,
    )
    max_polls = 1 if args.once else args.max_polls
    try:
        records = monitor.run(max_polls=max_polls)
    except KeyboardInterrupt:
        records = []
        print()
    for record in records:
        changes = record["delta"]
        if record["traffic_changes"]:
            changes += f", {record['traffic_changes']} traffic change(s)"
        print(f"[{record['action']}] {record['file']}  {changes}"
              + (f"  UNREPAIRABLE: {', '.join(record['unrepairable'])}"
                 if record["unrepairable"] else ""))
    print(f"{monitor.polls} poll(s), {len(records)} change(s) enqueued; "
          f"state {monitor.state_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "sweep": _command_sweep,
        "worst-case": _command_worst_case,
        "refine": _command_refine,
        "gap": _command_gap,
        "failures": _command_failures,
        "campaign": _command_campaign,
        "serve": _command_serve,
        "monitor": _command_monitor,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
