"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``check``       hierarchicality verdict, elimination trace, compiled plan
``count``       bag-set value ``Q(D)`` of a query on a database
``pqe``         marginal probability over a probabilistic database
``bsm``         bag-set maximization (optionally with the repair witness)
``shapley``     Shapley (and Banzhaf) values of endogenous facts
``resilience``  resilience and an optimal contingency set
``serve``       concurrent request serving from a JSON request stream
``cache``       compiled-plan cache counters (``--clear`` to drop it)
``experiments`` regenerate EXPERIMENTS.md tables
``bench``       scalar-vs-kernel + amortized-session + serving perf suite

The evaluation commands (``pqe``, ``bsm``, ``shapley``, ``resilience``) run
through the unified engine: each builds an :class:`~repro.engine.Engine`
from the command-line policy and opens one
:class:`~repro.engine.EngineSession` for all of the command's requests.

Databases are JSON files in the :mod:`repro.db.io` formats::

    {"relations": {"R": [[1, 5]], "S": [[1, 1], [1, 2]]}}           # set DB
    {"facts": [{"relation": "R", "values": [1, 5],
                "probability": "1/2"}]}                              # TID
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.perf import (
    PERF_EXPERIMENTS,
    compare_perf_documents,
    render_perf_summary,
    run_perf_suite,
    write_perf_json,
)
from repro.core.algorithm import KERNEL_MODES
from repro.core.plan import clear_plan_cache, compile_plan, plan_cache_info
from repro.db.evaluation import count_satisfying_assignments
from repro.db.io import load_database, load_probabilistic
from repro.engine import Engine
from repro.exceptions import ReproError
from repro.problems.bagset_max import BagSetInstance, optimal_repair
from repro.problems.resilience import ResilienceInstance, contingency_set
from repro.query.elimination import eliminate, policy_names
from repro.query.hierarchy import is_hierarchical
from repro.query.parser import parse_query


def _add_policy_option(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--policy",
        default="rule1_first",
        choices=policy_names(),
        help="elimination policy (min_support is cost-based)",
    )


def _add_kernel_mode_option(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--kernel-mode",
        dest="kernel_mode",
        default="auto",
        choices=KERNEL_MODES,
        help=(
            "execution tier: auto/array use the columnar numpy tier for "
            "flat-carrier monoids (falling back to the batched kernels), "
            "batched forces the batched kernels, scalar the per-element "
            "baseline"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Unifying Algorithm for Hierarchical Queries (PODS 2025)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="analyze a query")
    check.add_argument("query", help='e.g. "Q() :- R(A,B), S(A,C)"')
    _add_policy_option(check)

    count = commands.add_parser("count", help="bag-set value Q(D)")
    count.add_argument("query")
    count.add_argument("--db", required=True, help="set-database JSON file")

    pqe = commands.add_parser("pqe", help="probabilistic query evaluation")
    pqe.add_argument("query")
    pqe.add_argument("--db", required=True, help="probabilistic-database JSON file")
    pqe.add_argument("--exact", action="store_true", help="exact rationals")
    _add_policy_option(pqe)
    _add_kernel_mode_option(pqe)

    bsm = commands.add_parser("bsm", help="bag-set maximization")
    bsm.add_argument("query")
    bsm.add_argument("--db", required=True, help="base database JSON file")
    bsm.add_argument("--repair", required=True, help="repair database JSON file")
    bsm.add_argument("--budget", type=int, required=True, help="θ")
    bsm.add_argument(
        "--witness", action="store_true", help="also print an optimal repair"
    )
    _add_policy_option(bsm)
    _add_kernel_mode_option(bsm)

    shapley = commands.add_parser("shapley", help="Shapley values of facts")
    shapley.add_argument("query")
    shapley.add_argument("--exogenous", required=True, help="JSON file")
    shapley.add_argument("--endogenous", required=True, help="JSON file")
    shapley.add_argument(
        "--banzhaf", action="store_true", help="also print Banzhaf indices"
    )
    _add_policy_option(shapley)
    _add_kernel_mode_option(shapley)

    res = commands.add_parser("resilience", help="resilience of a true query")
    res.add_argument("query")
    res.add_argument("--db", required=True, help="endogenous database JSON file")
    res.add_argument("--exogenous", help="optional exogenous JSON file")
    res.add_argument(
        "--witness", action="store_true", help="also print a contingency set"
    )
    _add_kernel_mode_option(res)

    serve = commands.add_parser(
        "serve",
        help="serve a JSON request stream through the concurrent scheduler",
    )
    serve.add_argument(
        "--requests",
        required=True,
        help="request-stream JSON file (query + data + requests)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="scheduler worker threads"
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="also print scheduler/session counters",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None, dest="queue_limit",
        help="bound the pending-request queue (default: unbounded)",
    )
    serve.add_argument(
        "--shed-oldest", action="store_true", dest="shed_oldest",
        help=(
            "on a full queue, shed the oldest queued request instead of "
            "rejecting the new one"
        ),
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
        help=(
            "default per-request deadline in milliseconds (expired requests "
            "fail with DeadlineExceeded before execution)"
        ),
    )
    serve.add_argument(
        "--max-retries", type=int, default=0, dest="max_retries",
        help="retry budget for transient failures (default: no retries)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, dest="rate_limit",
        help="per-family admission rate in requests/second",
    )
    serve.add_argument(
        "--memo-limit", type=int, default=None, dest="memo_limit",
        help="LRU cap on the session result memo (default: unbounded)",
    )
    serve.add_argument(
        "--http", type=int, default=None, metavar="PORT", dest="http_port",
        help=(
            "after serving the stream, keep an HTTP front-end listening on "
            "PORT (0 = ephemeral): POST /v1/query, POST /v1/stream, "
            "GET /metrics (Prometheus), GET /healthz"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --http (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--trace-log", default=None, dest="trace_log", metavar="PATH",
        help="append one JSON span record per resolved request to PATH",
    )
    _add_policy_option(serve)
    _add_kernel_mode_option(serve)

    cache = commands.add_parser(
        "cache", help="compiled-plan cache counters"
    )
    cache.add_argument(
        "--clear", action="store_true", help="drop every memoized plan first"
    )

    experiments = commands.add_parser(
        "experiments", help="regenerate EXPERIMENTS.md tables"
    )
    experiments.add_argument(
        "ids", nargs="*", help=f"subset of {', '.join(ALL_EXPERIMENTS)}"
    )

    bench = commands.add_parser(
        "bench",
        help="scalar-vs-kernel + amortized-session perf suite (BENCH_perf.json)",
    )
    bench.add_argument(
        "ids", nargs="*", help=f"subset of {', '.join(PERF_EXPERIMENTS)}"
    )
    bench.add_argument(
        "--json", dest="json_path", help="write the machine-readable document here"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, one repeat (smoke agreement check)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    bench.add_argument(
        "--kernel-mode",
        dest="kernel_mode",
        default=None,
        choices=KERNEL_MODES,
        help=(
            "measure only this tier against the scalar baseline (default: "
            "every available tier)"
        ),
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help=(
            "diff two BENCH_perf.json documents (per-experiment speedup "
            "deltas) instead of running experiments"
        ),
    )
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    print(f"query: {query}")
    hierarchical = is_hierarchical(query)
    print(f"hierarchical: {hierarchical}")
    print()
    print(f"elimination trace ({args.policy}):")
    print(eliminate(query, policy=args.policy))
    if hierarchical:
        print()
        print(compile_plan(query, policy=args.policy))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = load_database(args.db)
    print(count_satisfying_assignments(query, database))
    return 0


def _engine_from(args: argparse.Namespace) -> Engine:
    """An engine configured from ``--policy`` and ``--kernel-mode``."""
    return Engine(
        policy=getattr(args, "policy", "rule1_first"),
        kernel_mode=getattr(args, "kernel_mode", "auto"),
    )


def _cmd_pqe(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = load_probabilistic(args.db)
    session = _engine_from(args).open(query, probabilistic=database)
    probability = session.pqe(exact=args.exact)
    if args.exact:
        print(f"{probability} ≈ {float(probability):.6f}")
    else:
        print(f"{float(probability):.6f}")
    return 0


def _cmd_bsm(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = load_database(args.db)
    repair = load_database(args.repair)
    instance = BagSetInstance(
        database=database, repair_database=repair, budget=args.budget
    )
    session = _engine_from(args).open(query, database=database, repair=repair)
    profile = session.bagset_profile(args.budget)
    print(f"optimal Q(D') at budget θ={args.budget}: {profile[args.budget]}")
    print(f"budget profile q(0..θ): {profile}")
    if args.witness:
        value, added = optimal_repair(query, instance)
        print(f"an optimal repair (value {value}):")
        for fact in sorted(added, key=repr):
            print(f"  + {fact}")
    return 0


def _cmd_shapley(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    session = _engine_from(args).open(
        query,
        exogenous=load_database(args.exogenous),
        endogenous=load_database(args.endogenous),
    )
    values = session.shapley_values()
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for fact, value in ranked:
        line = f"{str(fact):<40} shapley={value}"
        if args.banzhaf:
            line += f"  banzhaf={session.banzhaf_value(fact)}"
        print(line)
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    exogenous = (
        load_database(args.exogenous) if args.exogenous else None
    )
    from repro.db.database import Database

    instance = ResilienceInstance(
        exogenous=exogenous or Database(),
        endogenous=load_database(args.db),
    )
    session = _engine_from(args).open(
        query, exogenous=instance.exogenous, endogenous=instance.endogenous
    )
    value = session.resilience()
    if math.isinf(value):
        print("resilience: ∞ (the exogenous facts alone satisfy the query)")
    else:
        print(f"resilience: {int(value)}")
        if args.witness:
            chosen = contingency_set(query, instance)
            assert chosen is not None
            print("a minimum contingency set:")
            for fact in sorted(chosen, key=repr):
                print(f"  - {fact}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serve import (
        AdmissionControl,
        RetryPolicy,
        Server,
        load_request_stream,
    )
    from repro.serve.admission import validate_worker_count

    try:
        validate_worker_count(args.workers)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    query, data, requests = load_request_stream(args.requests)
    if not requests:
        print("no requests in stream")
        return 0
    engine = Engine(
        policy=args.policy,
        kernel_mode=args.kernel_mode,
        memo_limit=args.memo_limit,
    )
    admission = AdmissionControl(
        queue_limit=args.queue_limit,
        shed_policy="shed_oldest" if args.shed_oldest else "reject",
        rate_limit=args.rate_limit,
        default_deadline=(
            None if args.deadline_ms is None else args.deadline_ms / 1000.0
        ),
    )
    retry = RetryPolicy(max_retries=args.max_retries)
    event_log = None
    if args.trace_log is not None:
        from repro.obs import EventLog

        event_log = EventLog(args.trace_log)
    started = time.perf_counter()
    with Server(
        query,
        engine=engine,
        workers=args.workers,
        admission=admission,
        retry=retry,
        event_log=event_log,
        **data,
    ) as server:
        # Admission may reject a submission outright (full queue, rate
        # limit); record the error in the request's slot so output order
        # still matches the stream.
        futures: list = []
        for request in requests:
            try:
                futures.append(server.submit(request))
            except ReproError as error:
                futures.append(error)
        failures = 0
        for index, (request, future) in enumerate(zip(requests, futures)):
            try:
                if isinstance(future, ReproError):
                    raise future
                print(f"[{index}] {request} = {future.result()}")
            except ReproError as error:
                failures += 1
                print(f"[{index}] {request} failed: {error}")
        elapsed = time.perf_counter() - started
        stats = server.stats()
        scheduler_stats = stats["scheduler"]
        memo = stats["session"]["memo"]
        print(
            f"served {len(requests)} requests in {elapsed:.3f}s "
            f"({len(requests) / max(elapsed, 1e-9):.1f} req/s, "
            f"{args.workers} workers)"
        )
        if args.stats:
            from repro.serve.scheduler import HEADLINE_COUNTERS

            counters = {**scheduler_stats, **scheduler_stats["batching"]}
            for key in HEADLINE_COUNTERS:
                print(f"{key}: {counters[key]}")
            print(f"memo_hits: {memo['hits']}")
            print(f"memo_misses: {memo['misses']}")
            print(f"memo_evictions: {memo['evictions']}")
        if args.http_port is not None:
            from repro.serve.http import HttpFrontend

            with HttpFrontend(
                server, host=args.host, port=args.http_port
            ).start() as frontend:
                print(f"listening on {frontend.url}", flush=True)
                try:
                    import threading

                    threading.Event().wait()
                except KeyboardInterrupt:
                    print("shutting down")
    if event_log is not None:
        event_log.close()
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.clear:
        clear_plan_cache()
        print("plan cache cleared")
    info = plan_cache_info()
    for key in ("size", "max_size", "hits", "misses"):
        print(f"{key}: {info[key]}")
    total = info["hits"] + info["misses"]
    if total:
        print(f"hit_rate: {info['hits'] / total:.1%}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    requested = args.ids or list(ALL_EXPERIMENTS)
    unknown = [name for name in requested if name not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}", file=sys.stderr)
        return 2
    for name in requested:
        print(ALL_EXPERIMENTS[name]().render())
        print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.compare:
        old_path, new_path = args.compare
        if args.ids or args.json_path:
            print(
                "error: --compare takes no experiment ids or --json",
                file=sys.stderr,
            )
            return 2
        import json

        with open(old_path, encoding="utf-8") as handle:
            old_document = json.load(handle)
        with open(new_path, encoding="utf-8") as handle:
            new_document = json.load(handle)
        print(compare_perf_documents(old_document, new_document))
        return 0
    requested = args.ids or list(PERF_EXPERIMENTS)
    unknown = [name for name in requested if name not in PERF_EXPERIMENTS]
    if unknown:
        print(f"unknown perf experiment id(s): {unknown}", file=sys.stderr)
        return 2
    document = run_perf_suite(
        requested, quick=args.quick, repeats=args.repeats,
        tier=args.kernel_mode,
    )
    print(render_perf_summary(document))
    if args.json_path:
        path = write_perf_json(document, args.json_path)
        print(f"\nwrote {path}")
    if not all(exp["agree"] for exp in document["experiments"].values()):
        print("error: kernel/scalar disagreement detected", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "count": _cmd_count,
    "pqe": _cmd_pqe,
    "bsm": _cmd_bsm,
    "shapley": _cmd_shapley,
    "resilience": _cmd_resilience,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "experiments": _cmd_experiments,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
