"""Command-line interface.

::

    repro-mobile list                 # experiment index
    repro-mobile run fig1             # one experiment, full fidelity
    repro-mobile run fig1 --quick     # fast mode (benchmark sizes)
    repro-mobile run-all [--quick]    # the whole reproduction
    repro-mobile run-all --jobs 4     # fan experiments across workers
    repro-mobile simulate sw9 --theta 0.3 --length 10000
    repro-mobile simulate adaptive --scenario mmpp --seed 7
    repro-mobile scenarios            # the non-stationary scenario registry
    repro-mobile advise --target 0.10 # window-size advisor (section 9)
    repro-mobile cache stats          # the content-addressed result cache
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ._version import __version__
from .analysis.window_choice import recommend_window
from .costmodels.connection import ConnectionCostModel
from .costmodels.message import MessageCostModel
from .engine.cache import ResultCache, default_cache
from .engine.parallel import EngineTask, ScenarioSpec, ScheduleSpec, SweepExecutor
from .experiments import all_experiment_ids, get_experiment, run_all

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-mobile",
        description=(
            "Reproduction of Huang/Sistla/Wolfson, 'Data Replication for "
            "Mobile Computers' (SIGMOD 1994)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the experiment ids")

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", choices=all_experiment_ids())
    run.add_argument("--quick", action="store_true", help="small sample sizes")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for the experiment's sweeps "
                          "(default 1 = serial; results are identical)")
    run.add_argument("--json", dest="json_path", metavar="FILE",
                     help="also write the result as JSON to FILE")

    run_all_cmd = commands.add_parser("run-all", help="run every experiment")
    run_all_cmd.add_argument("--quick", action="store_true")
    run_all_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="fan experiments across N worker processes "
                                  "(default 1 = serial; results are identical)")
    run_all_cmd.add_argument("--no-cache", action="store_true",
                             help="skip the content-addressed result cache")
    run_all_cmd.add_argument("--json", dest="json_path", metavar="FILE",
                             help="also write all results as a JSON array")
    run_all_cmd.add_argument("--kernel-threads", type=int, default=None,
                             metavar="T",
                             help="threads per batched kernel launch "
                                  "(default: REPRO_KERNEL_THREADS, then "
                                  "the core count; workers default to 1)")

    simulate = commands.add_parser(
        "simulate", help="replay one algorithm on a Poisson workload"
    )
    simulate.add_argument("algorithm", help="e.g. st1, st2, sw9, sw1, t1_15")
    simulate.add_argument("--theta", type=float, default=0.3,
                          help="write fraction (default 0.3)")
    simulate.add_argument("--scenario", default=None, metavar="NAME",
                          help="replay a registered non-stationary scenario "
                               "instead of the i.i.d. --theta stream "
                               "(see 'repro-mobile scenarios')")
    simulate.add_argument("--length", type=int, default=10_000)
    simulate.add_argument("--model", choices=("connection", "message"),
                          default="connection")
    simulate.add_argument("--omega", type=float, default=0.5,
                          help="control/data ratio for the message model")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--backend",
                          choices=("auto", "reference", "vectorized",
                                   "protocol"),
                          default="auto",
                          help="execution backend (default: auto-dispatch)")
    simulate.add_argument("--faults", metavar="SPEC", default=None,
                          help="chaos-run the wire protocol under a seeded "
                               "fault schedule, e.g. "
                               "drop=0.05,seed=7,disconnect=2:1 "
                               "(frame keys: drop, dup, reorder, delay, "
                               "disconnect=START:DURATION; node keys, with "
                               "--replicas: crash=ID@T, pause=ID@T..T2, "
                               "partition=A+B|C@T..T2, kills=N@T; plus seed)")
    simulate.add_argument("--replicas", type=int, default=1, metavar="N",
                          help="run the schedule against an N-strong SC "
                               "replica set with heartbeats, primary "
                               "election and failover (2..5; default 1 = "
                               "the paper's single SC)")
    simulate.add_argument("--replicates", type=int, default=1, metavar="R",
                          help="independent replications (spawned seeds); "
                               "with R > 1 a per-replicate table and the "
                               "mean are printed")
    simulate.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for the replicates")

    commands.add_parser(
        "scenarios", help="list the registered non-stationary scenarios"
    )

    cache_cmd = commands.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_actions = cache_cmd.add_subparsers(dest="cache_action", required=True)
    cache_actions.add_parser("stats", help="entry count, size and cap")
    cache_actions.add_parser("clear", help="remove every cached result")

    advise = commands.add_parser(
        "advise", help="window-size advisor (conclusion section)"
    )
    advise.add_argument("--target", type=float, required=True,
                        help="allowed relative excess over the optimal AVG, e.g. 0.10")
    advise.add_argument("--model", choices=("connection", "message"),
                        default="connection")
    advise.add_argument("--omega", type=float, default=0.5)

    choose = commands.add_parser(
        "choose", help="the full section-9 method-selection procedure"
    )
    choose.add_argument("--theta", type=float, default=None,
                        help="known fixed write fraction; omit if unknown/varying")
    choose.add_argument("--model", choices=("connection", "message"),
                        default="connection")
    choose.add_argument("--omega", type=float, default=0.5)
    choose.add_argument("--no-worst-case", action="store_true",
                        help="waive the competitiveness requirement")
    choose.add_argument("--budget", type=float, default=0.10,
                        help="average-cost excess budget for the dynamic branch")

    report = commands.add_parser(
        "report", help="run everything and write a Markdown report"
    )
    report.add_argument("--out", required=True, metavar="FILE",
                        help="destination .md file")
    report.add_argument("--quick", action="store_true")

    serve = commands.add_parser(
        "serve", help="host allocation sessions as a sharded service"
    )
    serve.add_argument("--self-test", action="store_true",
                       help="drive a seeded load through the service, "
                            "audit the traffic ledgers and replay-verify "
                            "a session sample")
    serve.add_argument("--sessions", default="100k", metavar="N",
                       help="session population size; accepts k/m suffixes "
                            "(default 100k)")
    serve.add_argument("--rounds", type=int, default=2,
                       help="operation rounds to drive (default 2)")
    serve.add_argument("--ops-per-round", type=int, default=50, metavar="N",
                       help="operations per session per round (default 50)")
    serve.add_argument("--shards", type=int, default=32,
                       help="shard count (default 32)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--scenario", default=None, metavar="NAME",
                       help="drive the population through a registered "
                            "non-stationary scenario's theta profile "
                            "instead of stationary per-session thetas")
    serve.add_argument("--algorithms", default=None, metavar="LIST",
                       help="comma-separated algorithm mix "
                            "(default: every session-hostable family)")
    serve.add_argument("--replay-sample", type=int, default=32, metavar="N",
                       help="sessions to replay-verify against the engine")
    serve.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="after the timed region, drill shard-level "
                            "failover against an N-strong SC replica set "
                            "(2..5; default 1 = no drills)")
    serve.add_argument("--failover-drills", type=int, default=4, metavar="N",
                       help="shards to drill when --replicas > 1 (default 4)")
    serve.add_argument("--min-throughput", type=float, default=None,
                       metavar="DPS",
                       help="fail (exit 1) if the self-test sustains fewer "
                            "decisions/sec")
    serve.add_argument("--kernel-threads", type=int, default=None,
                       metavar="T",
                       help="threads per drain kernel launch (default: "
                            "REPRO_KERNEL_THREADS, then the core count)")
    serve.add_argument("--json", dest="json_path", metavar="FILE",
                       help="also write the self-test report as JSON")

    trace = commands.add_parser(
        "trace", help="profile a recorded trace and recommend a method"
    )
    trace.add_argument("path", help="trace file (see repro.workload.trace)")
    trace.add_argument("--model", choices=("connection", "message"),
                       default="connection")
    trace.add_argument("--omega", type=float, default=0.5)
    trace.add_argument("--window", type=int, default=100,
                       help="rolling-theta profiling window")

    return parser


def _cmd_list() -> int:
    for experiment_id in all_experiment_ids():
        experiment = get_experiment(experiment_id)
        print(f"{experiment_id:16} {experiment.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    executor = SweepExecutor(jobs=args.jobs) if args.jobs > 1 else None
    result = get_experiment(args.experiment_id).run(
        quick=args.quick, executor=executor
    )
    print(result.render())
    if args.json_path:
        with open(args.json_path, "w") as handle:
            handle.write(result.to_json())
        print(f"wrote {args.json_path}")
    return 0 if result.passed else 1


def _cmd_run_all(args: argparse.Namespace) -> int:
    cache = None if args.no_cache else default_cache()
    if args.kernel_threads is not None:
        # Experiments build their own executors internally; the env
        # override is the one channel that reaches every kernel launch
        # (and rides into worker processes with the environment).
        from .engine.batched import kernel_threads as _resolve

        _resolve(args.kernel_threads)  # validate before exporting
        os.environ["REPRO_KERNEL_THREADS"] = str(args.kernel_threads)
    results = run_all(quick=args.quick, jobs=args.jobs, cache=cache)
    for result in results:
        print(result.render())
        print()
    if args.json_path:
        import json as json_module

        with open(args.json_path, "w") as handle:
            json_module.dump([r.to_dict() for r in results], handle, indent=2)
        print(f"wrote {args.json_path}")

    # Summary table: wall-clock and cache provenance per experiment.
    width = max(len(r.experiment_id) for r in results)
    print(f"{'experiment':{width}}  {'time':>8}  {'source':6}  checks")
    for result in results:
        checks = f"{sum(c.passed for c in result.checks)}/{len(result.checks)}"
        source = "cache" if result.from_cache else "run"
        print(f"{result.experiment_id:{width}}  "
              f"{result.elapsed_seconds:7.2f}s  {source:6}  {checks}")
    hits = sum(r.from_cache for r in results)
    if cache is not None:
        print(f"cache: {hits} hits / {len(results) - hits} misses "
              f"({cache.stats().root})")
    executed_seconds = sum(
        r.elapsed_seconds for r in results if not r.from_cache
    )
    print(f"compute: {executed_seconds:.2f}s across executed experiments "
          f"(jobs={args.jobs})")

    failed = [r.experiment_id for r in results if not r.passed]
    total_checks = sum(len(r.checks) for r in results)
    passed_checks = sum(sum(c.passed for c in r.checks) for r in results)
    print(f"=== {passed_checks}/{total_checks} checks passed across "
          f"{len(results)} experiments ===")
    if failed:
        print(f"failed experiments: {failed}")
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = default_cache() or ResultCache()
    if args.cache_action == "stats":
        print(cache.stats().render())
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached results from {cache.stats().root}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.model == "connection":
        model = ConnectionCostModel()
    else:
        model = MessageCostModel(args.omega)
    if args.replicates < 1:
        print("--replicates must be >= 1", file=sys.stderr)
        return 2

    faults = None
    if args.faults is not None:
        from .sim.faults import parse_fault_spec

        faults = parse_fault_spec(args.faults)
    if args.replicas != 1 and not 2 <= args.replicas <= 5:
        print("--replicas must be 1 or 2..5", file=sys.stderr)
        return 2

    # One ScheduleSpec per replicate.  A single replicate uses the seed
    # directly (byte-identical to the historical serial path); more
    # replicates draw independent spawned children of it.
    if args.replicates == 1:
        seeds = [args.seed]
    else:
        from .workload.seeding import spawn_seeds

        seeds = spawn_seeds(args.seed if args.seed is not None else 0,
                            args.replicates)
    def _spec(seed):
        if args.scenario is not None:
            return ScenarioSpec(args.scenario, args.length, seed=seed)
        return ScheduleSpec(args.theta, args.length, seed=seed)

    tasks = [
        EngineTask(
            args.algorithm,
            _spec(seed),
            model,
            backend=args.backend,
            faults=faults,
            replicas=args.replicas,
            capture_wire=faults is not None or args.replicas != 1,
            tag=index,
        )
        for index, seed in enumerate(seeds)
    ]
    executor = SweepExecutor(jobs=args.jobs)
    outcomes = executor.map(tasks)

    first = outcomes[0]
    print(f"algorithm      : {first.algorithm_name}")
    if args.scenario is not None:
        print(f"scenario       : {args.scenario}")
    print(f"cost model     : {model.name}")
    print(f"backend        : {first.backend_name} "
          f"({first.dispatch_reason})")
    if args.replicates == 1:
        result = first
        reads = result.requests - sum(
            count for kind, count in result.event_counts.items()
            if kind.value.startswith("write")
        )
        print(f"requests       : {result.requests} "
              f"({reads} reads / {result.requests - reads} writes)")
        print(f"total cost     : {result.total_cost:.2f}")
        print(f"mean cost/req  : {result.mean_cost:.4f}")
        changes = ("n/a (wire run)" if result.scheme_changes is None
                   else result.scheme_changes)
        print(f"scheme changes : {changes}")
        for kind, count in sorted(result.event_counts.items(),
                                  key=lambda kv: kv[0].value):
            print(f"  {kind.value:28} x{count}")
        if result.diagnostic is not None:
            print(f"contained fault: {result.diagnostic}")
        if result.wire is not None:
            print("transport overhead (never charged to the costs above):")
            for key, value in result.wire.overhead.items():
                print(f"  {key:28} {value}")
            print(f"  {'resyncs verified':28} {result.wire.resyncs_verified}")
            if result.wire.replicas > 1:
                wire = result.wire
                print(f"replica set    : {wire.replicas} replicas, "
                      f"{wire.failovers} failover(s), final primary "
                      f"{wire.final_primary}")
                for (epoch, winner), latency in zip(
                        wire.election_history, wire.failover_latencies):
                    print(f"  epoch {epoch}: replica {winner} promoted "
                          f"after {latency:.2f}s (simulated)")
        return 0

    print(f"replicates     : {args.replicates} (jobs={args.jobs})")
    dispatch = executor.report()["dispatch"]
    if dispatch.get("batches"):
        size = dispatch["batched_runs"] / dispatch["batches"]
        print(f"batched        : {dispatch['batched_runs']} runs in "
              f"{dispatch['batches']} kernel batches "
              f"(mean batch size {size:.1f})")
    means = [outcome.mean_cost for outcome in outcomes]
    for outcome in outcomes:
        print(f"  replicate {outcome.tag:<3} total {outcome.total_cost:10.2f}  "
              f"mean/req {outcome.mean_cost:.4f}")
    grand_mean = sum(means) / len(means)
    spread = (sum((m - grand_mean) ** 2 for m in means) / len(means)) ** 0.5
    print(f"mean cost/req  : {grand_mean:.4f} (std {spread:.4f})")
    return 0


def _cmd_scenarios() -> int:
    from .workload.scenarios import available_scenarios, get_scenario

    width = max(len(name) for name in available_scenarios())
    for name in available_scenarios():
        scenario = get_scenario(name)
        marker = "regime-switching" if scenario.regime_switching else "stationary-ish"
        print(f"{name:{width}}  [{marker}]  {scenario.description}")
    return 0


def _make_model(args: argparse.Namespace):
    if args.model == "connection":
        return ConnectionCostModel()
    return MessageCostModel(args.omega)


def _cmd_choose(args: argparse.Namespace) -> int:
    from .analysis.selection import recommend_method

    recommendation = recommend_method(
        _make_model(args),
        theta=args.theta,
        needs_worst_case_bound=not args.no_worst_case,
        average_budget=args.budget,
    )
    print(recommendation)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import render_markdown

    results = run_all(quick=args.quick)
    with open(args.out, "w") as handle:
        handle.write(render_markdown(results))
    passed = sum(result.passed for result in results)
    print(f"wrote {args.out} ({passed}/{len(results)} experiments passed)")
    return 0 if passed == len(results) else 1


def _parse_session_count(text: str) -> int:
    """Parse ``100``, ``100k`` or ``1m`` into a session count."""
    lowered = text.strip().lower()
    multiplier = 1
    if lowered.endswith("k"):
        multiplier, lowered = 1_000, lowered[:-1]
    elif lowered.endswith("m"):
        multiplier, lowered = 1_000_000, lowered[:-1]
    try:
        count = int(lowered) * multiplier
    except ValueError:
        raise SystemExit(f"--sessions: cannot parse {text!r}")
    return count


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import run_self_test

    if not args.self_test:
        print("repro serve currently supports --self-test only; the "
              "library API (repro.service.AllocationService) hosts "
              "interactive sessions", file=sys.stderr)
        return 2
    sessions = _parse_session_count(args.sessions)
    algorithms = (
        [name.strip() for name in args.algorithms.split(",") if name.strip()]
        if args.algorithms else None
    )
    report = run_self_test(
        sessions,
        rounds=args.rounds,
        ops_per_round=args.ops_per_round,
        num_shards=args.shards,
        seed=args.seed,
        algorithms=algorithms,
        replay_sample=args.replay_sample,
        replicas=args.replicas,
        failover_drills=args.failover_drills,
        scenario=args.scenario,
        kernel_threads=args.kernel_threads,
    )
    if report.get("scenario"):
        print(f"scenario        : {report['scenario']}")
    print(f"sessions        : {report['sessions']} "
          f"across {report['occupied_shards']} shards "
          f"(per-shard {report['min_shard_sessions']}"
          f"..{report['max_shard_sessions']})")
    print(f"algorithm mix   : {', '.join(report['algorithms'])}")
    print(f"decisions       : {report['decisions']} "
          f"({report['rounds']} rounds x {report['ops_per_round']} ops)")
    print(f"elapsed         : {report['elapsed_seconds']:.3f}s")
    print(f"throughput      : {report['decisions_per_sec']:,.0f} decisions/s")
    audit = report["audit"]
    print(f"ledger audit    : {audit['shards_audited']} shards, "
          f"{audit['sessions_audited']} sessions, "
          f"{audit['requests_audited']} requests conserved")
    replay = report["replay"]
    print(f"engine replay   : {replay['sessions_replayed']} sessions, "
          f"{replay['decisions_replayed']} decisions byte-identical")
    failover = report.get("failover")
    if failover is not None:
        identical = "byte-identical" if failover["byte_identical"] else "DIVERGED"
        print(f"failover drills : {failover['drills']} shards x "
              f"{failover['replicas']} replicas, "
              f"{failover['failovers']} failover(s), ledgers {identical}, "
              f"mean promotion {failover['mean_failover_latency']:.2f}s "
              f"(simulated)")
    if args.json_path:
        import json as json_module

        with open(args.json_path, "w") as handle:
            json_module.dump(report, handle, indent=2)
        print(f"wrote {args.json_path}")
    if (args.min_throughput is not None
            and report["decisions_per_sec"] < args.min_throughput):
        print(f"FAIL: {report['decisions_per_sec']:,.0f} decisions/s below "
              f"the {args.min_throughput:,.0f} floor", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.selection import recommend_for_trace
    from .workload.trace import load_trace, profile_trace

    schedule = load_trace(args.path)
    profile = profile_trace(schedule, window=args.window)
    print(f"trace           : {args.path}")
    print(f"requests        : {profile.length} "
          f"(write fraction {profile.write_fraction:.3f})")
    print(f"theta drift     : {profile.theta_drift:.3f} "
          f"({'stationary' if profile.looks_stationary else 'drifting'})")
    print(f"mean phase len  : {profile.mean_phase_length:.0f} requests")
    recommendation = recommend_for_trace(
        schedule, _make_model(args), window=args.window
    )
    print(f"recommendation  : {recommendation}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    pick = recommend_window(args.target, model=args.model, omega=args.omega)
    print(f"recommended window size : k = {pick.k}")
    print(f"average expected cost   : {pick.average_cost:.4f} "
          f"({100 * pick.average_excess:.2f}% over the optimum)")
    print(f"competitiveness factor  : {pick.competitive_factor:.2f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "choose":
        return _cmd_choose(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
