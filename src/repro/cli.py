"""Command-line interface: generate, inspect, recommend, trust, experiment.

Installed as the ``repro`` console script.  Subcommands:

* ``repro generate``   — generate a synthetic community to JSONL snapshots
* ``repro info``       — summarize a dataset snapshot
* ``repro recommend``  — top-N recommendations for one agent
* ``repro trust``      — trust neighborhood of one agent (Appleseed/Advogato);
  ``repro trust rank SOURCE...`` runs one
  :func:`~repro.trust.engine.rank_many` sweep over many sources
* ``repro experiment`` — run one EX table (EX01–EX23) and print it
* ``repro demo``       — full decentralized loop (optionally under faults)
* ``repro crawl``      — chaos crawl: replicate a community under injected
  faults (``--fault-rate/--fault-seed/--retries`` …) and report
  retry/breaker/degradation statistics
* ``repro trace``      — inspect observability artifacts:
  ``summarize FILE`` validates a JSONL trace and prints the slowest
  spans and per-name rollups; ``top FILE`` is the profiler view
  (self-time aggregation + critical path); ``flame FILE`` renders the
  ASCII flame tree; ``diff A B`` reports structural drift and the spans
  whose self time moved most (see ``docs/PROFILING.md``)
* ``repro bench``      — the standing perf trajectory: run the
  build/query/trust ladder across community sizes with tracing on and
  write the span-attributed ``BENCH_scale.json``
  (schema ``repro-bench/1``; gated by
  ``scripts/check_bench_regression.py``)

``recommend``, ``crawl`` and ``experiment`` accept ``--trace FILE``
(write a JSONL span tree of the run), ``--metrics`` (print the
counter/histogram summary after the command output) and ``--memory``
(stamp per-span tracemalloc deltas into the trace); all default off,
leaving the near-zero-cost :class:`~repro.obs.NullTracer` bound.

Every command works off the JSONL snapshot format of
:mod:`repro.datasets.io`, so pipelines compose through files::

    repro generate --agents 300 --products 600 --out data.jsonl --taxonomy-out tax.jsonl
    repro info --data data.jsonl
    repro recommend --data data.jsonl --taxonomy tax.jsonl --agent-index 0
    repro experiment EX05
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from .core.profiles import TaxonomyProfileBuilder
from .core.recommender import (
    PopularityRecommender,
    ProfileStore,
    PureCFRecommender,
    RandomRecommender,
    SemanticWebRecommender,
    TrustOnlyRecommender,
)
from .datasets.amazon import book_taxonomy_config
from .datasets.generators import CommunityConfig, generate_community
from .datasets.io import load_dataset, load_taxonomy, save_dataset, save_taxonomy
from .evaluation.registry import EXPERIMENTS
from .obs import (
    MetricsRegistry,
    Tracer,
    collecting,
    diff_traces,
    get_tracer,
    load_trace,
    render_diff,
    render_flame,
    render_top,
    summarize_trace,
    tracing,
    validate_trace,
    write_records_jsonl,
)
from .trust.advogato import Advogato
from .trust.appleseed import Appleseed
from .trust.graph import TrustGraph

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic Web Recommender Systems (EDBT 2004) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic community")
    generate.add_argument("--agents", type=int, default=300)
    generate.add_argument("--products", type=int, default=600)
    generate.add_argument("--clusters", type=int, default=8)
    generate.add_argument("--topics", type=int, default=800)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--explicit", action="store_true",
                          help="graded explicit ratings instead of implicit +1 votes")
    generate.add_argument("--out", required=True, help="dataset JSONL path")
    generate.add_argument("--taxonomy-out", required=True, help="taxonomy JSONL path")

    info = sub.add_parser("info", help="summarize a dataset snapshot")
    info.add_argument("--data", required=True)

    recommend = sub.add_parser("recommend", help="recommend products for an agent")
    recommend.add_argument("--data", required=True)
    recommend.add_argument("--taxonomy", required=True)
    group = recommend.add_mutually_exclusive_group(required=True)
    group.add_argument("--agent", help="agent URI")
    group.add_argument("--agent-index", type=int, help="index into sorted agent list")
    recommend.add_argument("--limit", type=int, default=10)
    recommend.add_argument(
        "--method",
        choices=["hybrid", "cf", "trust", "popularity", "random"],
        default="hybrid",
    )
    _add_obs_arguments(recommend)

    trust = sub.add_parser("trust", help="compute a trust neighborhood")
    # The flat form (`repro trust --data ... --source-index 0`) predates
    # the subcommands, so its required flags are validated in the
    # handler instead of by argparse — a required flag or group here
    # would reject `repro trust rank ...`.
    trust.add_argument("--data", default=None)
    group = trust.add_mutually_exclusive_group()
    group.add_argument("--source", help="source agent URI")
    group.add_argument("--source-index", type=int, help="index into sorted agents")
    trust.add_argument("--metric", choices=["appleseed", "advogato"], default="appleseed")
    trust.add_argument("--top", type=int, default=10)
    trust_sub = trust.add_subparsers(dest="trust_command", metavar="SUBCOMMAND")
    rank = trust_sub.add_parser(
        "rank",
        help="Appleseed rank sweep over many sources (rank_many)",
    )
    rank.add_argument("sources", nargs="*", metavar="SOURCE",
                      help="source agent URIs (default: every agent)")
    rank.add_argument("--data", default=None)
    rank.add_argument("--top", type=int, default=3,
                      help="top peers to print per source")
    _add_obs_arguments(rank)

    experiment = sub.add_parser("experiment", help="run one experiment table")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS), metavar="ID",
                            type=str.upper, help="EX01..EX23 (case-insensitive)")
    _add_obs_arguments(experiment)

    demo = sub.add_parser(
        "demo",
        help="full decentralized demo: generate, publish, crawl, recommend",
    )
    demo.add_argument("--agents", type=int, default=120)
    demo.add_argument("--products", type=int, default=240)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--limit", type=int, default=5)
    demo.add_argument("--split-channels", action="store_true",
                      help="publish trust on homepages, ratings on weblogs")
    _add_fault_arguments(demo)

    crawl = sub.add_parser(
        "crawl",
        help="chaos crawl: publish a community, replicate it under injected faults",
    )
    crawl.add_argument("--agents", type=int, default=120)
    crawl.add_argument("--products", type=int, default=240)
    crawl.add_argument("--seed", type=int, default=7,
                       help="community generation seed")
    crawl.add_argument("--budget", type=int, default=None,
                       help="homepage fetch budget (default: unlimited)")
    crawl.add_argument("--split-channels", action="store_true",
                       help="publish trust on homepages, ratings on weblogs")
    _add_fault_arguments(crawl)
    _add_obs_arguments(crawl)

    trace = sub.add_parser("trace", help="inspect a JSONL trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="validate a trace and print slowest spans + per-name rollups",
    )
    summarize.add_argument("file", help="JSONL trace written by --trace")
    summarize.add_argument("--top", type=int, default=10, metavar="N",
                           help="how many slowest spans to show")
    summarize.add_argument("--strict-durations", action="store_true",
                           help="also reject non-monotonic durations "
                                "(children outlasting their parent)")
    top = trace_sub.add_parser(
        "top",
        help="profiler view: per-name self/cumulative time + critical path",
    )
    top.add_argument("file", help="JSONL trace written by --trace")
    top.add_argument("--limit", type=int, default=15, metavar="N",
                     help="how many span names to show")
    flame = trace_sub.add_parser(
        "flame",
        help="ASCII flame view of the span tree",
    )
    flame.add_argument("file", help="JSONL trace written by --trace")
    flame.add_argument("--width", type=int, default=60, metavar="COLS",
                       help="bar width of a full root in cells")
    diff = trace_sub.add_parser(
        "diff",
        help="compare two traces: structural drift + self-time movements",
    )
    diff.add_argument("file_a", help="baseline JSONL trace (A)")
    diff.add_argument("file_b", help="candidate JSONL trace (B)")
    diff.add_argument("--top", type=int, default=10, metavar="N",
                      help="how many self-time movements to show")

    bench = sub.add_parser(
        "bench",
        help="standing perf trajectory: build/query/trust ladder -> "
             "span-attributed BENCH_scale.json (schema repro-bench/1)",
    )
    bench.add_argument("--sizes", default=None, metavar="N,N,...",
                       help="ascending community sizes (default: 100,200,400; "
                            "--smoke: 60,120)")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--queries", type=int, default=5, metavar="N",
                       help="recommendation queries per size")
    bench.add_argument("--sources", type=int, default=8, metavar="N",
                       help="trust-rank sources per size")
    bench.add_argument("--out", default="BENCH_scale.json", metavar="FILE",
                       help="bench document path (repro-bench/1 schema)")
    bench.add_argument("--trace-out", default=None, metavar="FILE",
                       help="also write the driver's JSONL span trace to FILE")
    bench.add_argument("--memory", action="store_true",
                       help="stamp per-span tracemalloc deltas into the trace")
    bench.add_argument("--smoke", action="store_true",
                       help="smoke sizes + smoke marker in the document")

    return parser


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability knobs: trace export and metrics summary."""
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL span trace of the run to FILE")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics summary after the output")
    parser.add_argument("--memory", action="store_true",
                        help="with --trace: stamp per-span tracemalloc "
                             "deltas (mem_delta_kb) into the spans")


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared chaos knobs: fault injection rates, seed, and retries."""
    parser.add_argument("--fault-rate", type=_rate, default=0.0,
                        help="transient failure probability per fetch attempt")
    parser.add_argument("--outage-rate", type=_rate, default=0.0,
                        help="probability a site is permanently down")
    parser.add_argument("--corruption-rate", type=_rate, default=0.0,
                        help="probability a fetched body is corrupted")
    parser.add_argument("--slow-rate", type=_rate, default=0.0,
                        help="probability a fetch pays extra latency ticks")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for fault injection and retry jitter")
    parser.add_argument("--retries", type=_nonnegative_int, default=3,
                        help="max retries per fetch for transient failures")


def _pick_agent(dataset, uri: str | None, index: int | None) -> str:
    agents = sorted(dataset.agents)
    if uri is not None:
        if uri not in dataset.agents:
            raise SystemExit(f"error: unknown agent {uri!r}")
        return uri
    assert index is not None
    if not 0 <= index < len(agents):
        raise SystemExit(f"error: agent index out of range (0..{len(agents) - 1})")
    return agents[index]


def _cmd_generate(args: argparse.Namespace) -> int:
    config = CommunityConfig(
        n_agents=args.agents,
        n_products=args.products,
        n_clusters=args.clusters,
        seed=args.seed,
        explicit_ratings=args.explicit,
        taxonomy=book_taxonomy_config(target_topics=args.topics, seed=args.seed),
    )
    community = generate_community(config)
    save_dataset(community.dataset, args.out)
    save_taxonomy(community.taxonomy, args.taxonomy_out)
    summary = community.dataset.summary()
    print(f"wrote {args.out} ({summary['agents']} agents, "
          f"{summary['ratings']} ratings, {summary['trust_statements']} trust stmts)")
    print(f"wrote {args.taxonomy_out} ({len(community.taxonomy)} topics)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    for key, value in dataset.summary().items():
        if isinstance(value, float):
            print(f"{key}: {value:.6f}")
        else:
            print(f"{key}: {value}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    taxonomy = load_taxonomy(args.taxonomy)
    agent = _pick_agent(dataset, args.agent, args.agent_index)
    store = ProfileStore(dataset, TaxonomyProfileBuilder(taxonomy))
    graph = TrustGraph.from_dataset(dataset)
    if args.method == "hybrid":
        recommender = SemanticWebRecommender(
            dataset=dataset, graph=graph, profiles=store
        )
    elif args.method == "cf":
        recommender = PureCFRecommender(dataset=dataset, profiles=store)
    elif args.method == "trust":
        recommender = TrustOnlyRecommender(dataset=dataset, graph=graph)
    elif args.method == "popularity":
        recommender = PopularityRecommender(dataset=dataset)
    else:
        recommender = RandomRecommender(dataset=dataset)
    print(f"agent: {agent}")
    with get_tracer().span(
        "recommend.query", agent=agent, method=args.method, limit=args.limit
    ):
        recommendations = recommender.recommend(agent, limit=args.limit)
    if not recommendations:
        print("no recommendations (empty neighborhood or no votable products)")
        return 1
    for item in recommendations:
        title = dataset.products[item.product].title
        print(f"{item.product}\t{item.score:.4f}\t{title}")
    return 0


def _cmd_trust(args: argparse.Namespace) -> int:
    if getattr(args, "trust_command", None) == "rank":
        return _cmd_trust_rank(args)
    if args.data is None:
        raise SystemExit("error: --data is required")
    if (args.source is None) == (args.source_index is None):
        raise SystemExit("error: exactly one of --source / --source-index is required")
    dataset = load_dataset(args.data)
    source = _pick_agent(dataset, args.source, args.source_index)
    graph = TrustGraph.from_dataset(dataset)
    print(f"source: {source}")
    if args.metric == "appleseed":
        result = Appleseed().compute(graph, source)
        print(
            f"appleseed: {len(result.ranks)} ranked, "
            f"{result.iterations} iterations, converged={result.converged}"
        )
        for agent, rank in result.top(args.top):
            print(f"{agent}\t{rank:.4f}")
    else:
        result = Advogato(target_size=args.top).compute(graph, source)
        print(f"advogato: {len(result.accepted)} certified (flow {result.total_flow})")
        for agent in sorted(result.accepted):
            print(agent)
    return 0


def _cmd_trust_rank(args: argparse.Namespace) -> int:
    """Appleseed sweep over many sources (``repro trust rank``)."""
    from .trust.engine import rank_many

    if args.data is None:
        raise SystemExit("error: --data is required")
    dataset = load_dataset(args.data)
    graph = TrustGraph.from_dataset(dataset)
    sources = list(args.sources) or sorted(dataset.agents)
    for source in sources:
        if source not in dataset.agents:
            raise SystemExit(f"error: unknown agent {source!r}")
    results = rank_many(graph, sources)
    for result in results:
        print(
            f"{result.source}\t{len(result.ranks)} ranked\t"
            f"{result.iterations} iterations\tconverged={result.converged}"
        )
        for agent, rank in result.top(args.top):
            print(f"  {agent}\t{rank:.4f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    with get_tracer().span(f"experiment.{args.id}"):
        table = EXPERIMENTS[args.id].table()
    print(table.render())
    return 0


def _fault_plan(args: argparse.Namespace):
    """A :class:`FaultPlan` from CLI flags, or ``None`` when all rates are 0."""
    from .web.faults import FaultPlan

    rates = (args.fault_rate, args.outage_rate, args.corruption_rate, args.slow_rate)
    if not any(rate > 0 for rate in rates):
        return None
    return FaultPlan(
        transient_rate=args.fault_rate,
        outage_rate=args.outage_rate,
        corruption_rate=args.corruption_rate,
        slow_rate=args.slow_rate,
        seed=args.fault_seed,
    )


def _print_fault_summary(web) -> None:
    """One line of injected-fault totals for a :class:`FaultyWeb`."""
    print(
        f"faults injected: {web.transient_failures} transient, "
        f"{web.outages_hit} outage hits, {web.corrupted_served} corrupted, "
        f"{web.slow_fetches} slow (+{web.latency_ticks} latency ticks); "
        f"traffic: {web.fetch_count} fetches, {web.error_count} errors, "
        f"{web.probe_count} probes"
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    """The whole decentralized loop in one command."""
    from .agent import LocalAgent
    from .web.crawler import publish_community
    from .web.faults import FaultyWeb, RetryPolicy
    from .web.network import SimulatedWeb
    from .web.replicator import publish_split_community

    config = CommunityConfig(
        n_agents=args.agents,
        n_products=args.products,
        n_clusters=6,
        seed=args.seed,
        taxonomy=book_taxonomy_config(target_topics=400, seed=args.seed),
    )
    community = generate_community(config)
    web = SimulatedWeb()
    publisher = publish_split_community if args.split_channels else publish_community
    publisher(web, community.dataset, community.taxonomy)
    print(f"published {len(web)} documents "
          f"({'split' if args.split_channels else 'merged'} channels)")

    plan = _fault_plan(args)
    consumer_web = web if plan is None else FaultyWeb(web, plan)
    retry = RetryPolicy(max_retries=args.retries, seed=args.fault_seed)
    principal = sorted(community.dataset.agents)[0]
    me = LocalAgent(uri=principal, web=consumer_web, retry=retry)
    stats = me.sync()
    print(f"synced: {stats}")
    if plan is not None:
        _print_fault_summary(consumer_web)
    print(f"\ntop-{args.limit} recommendations for {principal}:")
    for item in me.recommendations(limit=args.limit):
        print(f"  {me.explain(item)}")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    """Publish a community and replicate it under injected faults."""
    from .web.crawler import publish_community
    from .web.faults import FaultyWeb, RetryPolicy
    from .web.network import SimulatedWeb
    from .web.replicator import CommunityReplicator, publish_split_community

    config = CommunityConfig(
        n_agents=args.agents,
        n_products=args.products,
        n_clusters=6,
        seed=args.seed,
        taxonomy=book_taxonomy_config(target_topics=400, seed=args.seed),
    )
    community = generate_community(config)
    web = SimulatedWeb()
    publisher = publish_split_community if args.split_channels else publish_community
    taxonomy_uri, catalog_uri = publisher(web, community.dataset, community.taxonomy)
    print(f"published {len(web)} documents "
          f"({'split' if args.split_channels else 'merged'} channels)")

    plan = _fault_plan(args)
    consumer_web = web if plan is None else FaultyWeb(web, plan)
    retry = RetryPolicy(max_retries=args.retries, seed=args.fault_seed)
    seed_agent = sorted(community.dataset.agents)[0]
    replicator = CommunityReplicator(web=consumer_web, retry=retry)
    dataset, _, report = replicator.replicate(
        [seed_agent],
        budget=args.budget,
        taxonomy_uri=taxonomy_uri,
        catalog_uri=catalog_uri,
    )

    coverage = len(dataset.agents) / len(community.dataset.agents)
    print(f"replicated {len(dataset.agents)}/{len(community.dataset.agents)} agents "
          f"(coverage {coverage:.3f}) from seed {seed_agent}")
    print(f"fetches: {report.homepage_fetches} homepage budget units, "
          f"{report.weblog_fetches} weblog, {report.mined_ratings} ratings mined"
          + (", budget exhausted" if report.budget_exhausted else ""))
    print(f"resilience: {report.retries} retries, "
          f"{report.transient_failures} transient failures, "
          f"{report.backoff_ticks} backoff ticks, "
          f"{report.breaker_trips} breaker trips, "
          f"{report.breaker_short_circuits} short circuits")
    print(f"degradation: {len(report.unreachable)} unreachable, "
          f"{len(report.degraded)} degraded (stale replica served), "
          f"{len(report.quarantined)} quarantined, "
          f"{len(report.weblogs_missing)} weblogs missing, "
          f"{len(report.parse_failures)} parse failures")
    if plan is not None:
        _print_fault_summary(consumer_web)
    return 0


def _load_validated_trace(
    path: str, strict_durations: bool = False
) -> list[dict] | None:
    """Load + schema-check one trace file; ``None`` (and stderr) on failure.

    Every :func:`~repro.obs.validate_trace` finding is printed — a
    corrupt trace reports all of its problems, not just the first.
    """
    try:
        records = load_trace(path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    problems = validate_trace(records, strict_durations=strict_durations)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return None
    return records


def _cmd_trace(args: argparse.Namespace) -> int:
    """Validate and inspect JSONL traces (``repro trace <subcommand>``)."""
    if args.trace_command == "diff":
        records_a = _load_validated_trace(args.file_a)
        records_b = _load_validated_trace(args.file_b)
        if records_a is None or records_b is None:
            return 2
        print(f"A: {args.file_a} ({len(records_a)} spans)")
        print(f"B: {args.file_b} ({len(records_b)} spans)")
        print(render_diff(diff_traces(records_a, records_b), top=args.top))
        return 0
    strict = args.trace_command == "summarize" and args.strict_durations
    records = _load_validated_trace(args.file, strict_durations=strict)
    if records is None:
        return 2
    if args.trace_command == "summarize":
        print(summarize_trace(records, top=args.top))
    elif args.trace_command == "top":
        print(render_top(records, limit=args.limit))
    else:
        print(render_flame(records, width=args.width))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the standing perf trajectory driver (``repro bench``)."""
    from .evaluation.benchtrack import run_bench, write_bench

    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(piece) for piece in args.sizes.split(","))
        except ValueError:
            raise SystemExit(f"error: --sizes must be integers, got {args.sizes!r}")
    try:
        document, records = run_bench(
            sizes=sizes,
            seed=args.seed,
            queries=args.queries,
            trust_sources=args.sources,
            smoke=args.smoke,
            memory=args.memory,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    for entry in document["sizes"]:
        phases = entry["phases"]
        summary = ", ".join(
            f"{phase} {phases[phase]['wall_ms']:.1f} ms "
            f"({phases[phase]['dominant_span']})"
            for phase in ("build", "query", "trust")
        )
        print(f"{entry['agents']:>6} agents: {summary}")
    path = write_bench(document, args.out)
    print(f"wrote {path} (schema {document['schema']})")
    if args.trace_out is not None:
        written = write_records_jsonl(records, args.trace_out)
        print(f"trace: wrote {written} spans to {args.trace_out}")
    return 0


def _with_observability(args: argparse.Namespace, run: Callable[[], int]) -> int:
    """Run a handler under ``--trace`` / ``--metrics`` bindings.

    With neither flag the handler runs against the default
    :class:`~repro.obs.NullTracer` — instrumented code pays only a
    no-op call.  With flags, a fresh :class:`~repro.obs.Tracer` /
    :class:`~repro.obs.MetricsRegistry` is bound for the duration, the
    trace is written after the run (even a failing one, so partial
    traces aid debugging), and the metrics summary prints last.
    """
    if args.trace is None and not args.metrics:
        return run()
    tracer = Tracer(memory=getattr(args, "memory", False))
    registry = MetricsRegistry()
    try:
        with tracing(tracer), collecting(registry):
            code = run()
    finally:
        if args.trace is not None:
            written = tracer.write_jsonl(args.trace)
            print(f"trace: wrote {written} spans to {args.trace}")
    if args.metrics:
        print()
        print(registry.render_summary())
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "recommend": _cmd_recommend,
        "trust": _cmd_trust,
        "experiment": _cmd_experiment,
        "demo": _cmd_demo,
        "crawl": _cmd_crawl,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
    }
    handler = handlers[args.command]
    if hasattr(args, "trace") and args.command != "trace":
        return _with_observability(args, lambda: handler(args))
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
