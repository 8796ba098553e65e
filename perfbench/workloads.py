"""The four workloads: closed loops with one client on one thread.

Each run generates its inputs from the seed, sets up the serving
state, runs warm-up operations that the metrics leave out, then issues
operations back to back until ``seconds`` have passed.  Every run
completes at least the workload's *prefix* of operations; the answer
digest and the program counts cover exactly that prefix, so two runs of
one seed print the same digest and counts however fast the machine is.

``setup_s`` is the median of setups timed at evenly spaced points of the
measured window, each built from the records beside the serving state
and dropped at once.  The host's speed moves in phases of seconds, so
setups bunched before the loop would each meet one phase; spread out,
they meet the same phases as the reads.  The serving state's own setup,
the process's first and coldest, is not a sample.

Answers are checked against cold rebuilds: a fresh ``Dataset``,
``TrustGraph``, ``ProfileStore`` and recommender built from the records
(and the writes applied so far).  Oracles are built after the measured
loop, once the serving state is gone, untimed, untraced and under their
own metrics registry.

Every timed call, setups included, is scaled to a reference host speed
by the pace probes around it (:mod:`perfbench.pace`); the unscaled read
latency and the probes' median are printed beside the metrics.

With ``trace`` on, operations (churn: whole cycles) alternate between
traced and untraced, and which of a pair goes first flips every two
pairs, so ``tracing.overhead_pct`` compares neighbouring reads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.recommender import Recommendation, SemanticWebRecommender
from repro.core.taxonomy import Taxonomy
from repro.obs import MetricsRegistry, Stopwatch, Tracer, collecting
from repro.trust.appleseed import AppleseedResult

from . import inputs
from .layers import PER_LAYER, Layers, per_layer
from .pace import REFERENCE_S, Pace
from .serving import (
    LIMIT,
    recommend,
    rank,
    setup_community,
    setup_graph,
    taxonomy_from,
    update,
    update_graph,
)

#: Scores and ranks agree with the oracle to this absolute tolerance.
TOLERANCE = 1e-9

@dataclass(frozen=True)
class Plan:
    """Sizes and operation counts of one workload."""

    #: ``allconsuming_config`` scale (Dataset workloads).
    scale: float = 0.0
    #: ``stream_trust_edges`` nodes (trust-sweep).
    nodes: int = 0
    bounded: bool = True
    #: Setups timed during the measured window, about 3 to 5 s of them.
    setups: int = 11
    warmup: int = 3
    #: Operations every run completes; the digest and counts cover them.
    prefix: int = 12
    #: Writes spread over the read loop (churn writes every cycle instead).
    probe_writes: int = 0
    #: Churn: reads by other principals after each write.
    reads_per_write: int = 0
    #: Trust-sweep: sources per ``rank_many`` call.
    batch: int = 1
    #: Answers compared with a cold rebuild (churn: cycles checked).
    sample: int = 6
    #: Requests generated per run; a run stops early if it uses them all.
    requests: int = 20_000


# The largest sizes that measured steadily on a shared host: at scale
# 0.25 each rating scan outgrew a core's 2 MiB L2 cache and run times
# swung by half with other tenants' load (see WORKLOADS.md).
PLANS: dict[str, Plan] = {
    "hybrid-bounded": Plan(scale=0.1, setups=7, probe_writes=50),
    "hybrid-open": Plan(scale=0.05, bounded=False, probe_writes=30),
    "churn": Plan(scale=0.05, warmup=2, prefix=8, reads_per_write=2, sample=3),
    "trust-sweep": Plan(nodes=10_000, warmup=1, prefix=2, probe_writes=30, batch=4, sample=2),
}


@dataclass
class Tally:
    """Everything one run measured and checked."""

    layers: Layers | None
    pace: Pace = field(default_factory=Pace)
    #: Timings scaled by the pace probes; ``wall_read_ms`` is unscaled.
    setup_s: list[float] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    traced_read_ms: list[float] = field(default_factory=list)
    traced_update_ms: list[float] = field(default_factory=list)
    wall_read_ms: list[float] = field(default_factory=list)
    #: Scaled seconds of the counted reads.
    read_s: float = 0.0
    reads: int = 0
    sources: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    counts: dict[str, float] = field(default_factory=dict)
    principals: list[str] = field(default_factory=list)
    size: str = ""

    def traced(self, index: int) -> bool:
        """Every other operation is traced; which of a pair flips every two pairs."""
        return self.layers is not None and index % 2 == (index // 4) % 2

    def op(self, index: int, root: str, func: Callable[..., Any], *args: Any) -> Any:
        """One operation; returns ``(result, scaled seconds, wall seconds,
        traced)`` or None if it raised."""
        self.attempted += 1
        traced = self.traced(index)
        try:
            if traced:
                assert self.layers is not None
                result, wall, took = self.pace.time_call(self.layers.run, root, func, *args)
            else:
                result, wall, took = self.pace.time_call(Stopwatch.time_call, func, *args)
        except Exception as exc:  # an operation that raises is a failed operation
            self.failures.append(f"{root} {args[1:]!r}: {exc!r}")
            return None
        return result, took, wall, traced

    def serve(self, build: Callable[[Layers | None], tuple[Any, float]]) -> Any:
        """The serving state, instrumented in a traced run; not a setup sample."""
        with self.layers.active() if self.layers else nullcontext():
            state, _ = build(self.layers)
        return state

    def resetup(self, build: Callable[[Layers | None], tuple[Any, float]]) -> None:
        """One more setup from the records, timed and dropped at once.

        Its program counters go to a registry of their own, so the run's
        counters describe the serving state.  A traced run traces it under
        wrappers of its own, dropped with it.
        """
        layers = Layers(self.layers.tracer) if self.layers else None
        with collecting(MetricsRegistry()), layers.active() if layers else nullcontext():
            took = self.pace.time_call(build, layers)[2]
        self.setup_s.append(took)
        del layers
        gc.collect()

    def release(self) -> None:
        """Collect the dropped serving state, span wrappers included."""
        if self.layers is not None:
            self.layers.release()
        gc.collect()

    def served(self, what: str, func: Callable[..., Any], *args: Any) -> Any:
        """An untimed answer from the serving state, or None if it raised."""
        self.attempted += 1
        try:
            return func(*args)
        except Exception as exc:  # a failure like any other operation's
            self.failures.append(f"{what}: {exc!r}")
            return None

    def count_read(self, outcome: tuple[Any, float, float, bool], sources: Sequence[str]) -> None:
        _, took, wall, traced = outcome
        (self.traced_read_ms if traced else self.read_ms).append(1000.0 * took)
        if not traced:
            self.wall_read_ms.append(1000.0 * wall)
        self.read_s += took
        self.reads += 1
        self.sources += len(sources)
        self.principals.extend(sources)

    def count_write(self, outcome: tuple[Any, float, float, bool], writer: str) -> None:
        _, took, _, traced = outcome
        (self.traced_update_ms if traced else self.update_ms).append(1000.0 * took)
        self.principals.append(writer)

    def end_loop(self) -> None:
        """Take the peak memory the measured loop reached."""
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fold(self, lines: list[str]) -> None:
        for line in lines:
            self.digest.update(line.encode())
            self.digest.update(b"\n")

    def snapshot(self, registry: MetricsRegistry) -> None:
        counters = registry.snapshot()["counters"]
        assert isinstance(counters, dict)
        self.counts = dict(counters)


@dataclass
class Interleaved:
    """Probe writes and timed setups, spread evenly over the measured window.

    Of *n* events of a kind, event *i* falls due once ``(i + 0.5) / n`` of
    the window has passed, so events meet the same host load as the reads
    around them.  Events start after the prefix, so the program counts of
    the prefix never include them.  A setup pauses the loop's clock.
    """

    tally: Tally
    seconds: float
    state: Any
    build: Callable[[Layers | None], tuple[Any, float]]
    setups: int
    writes: Sequence[inputs.Write] = ()
    update: Callable[[Any, inputs.Write], Any] | None = None
    written: int = 0
    built: int = 0

    def catch_up(self, watch: Stopwatch, finish: bool = False) -> None:
        """Issue every event due by now; with *finish*, every one left."""

        def due(done: int, total: int) -> bool:
            return done < total and (
                finish or watch.elapsed >= self.seconds * (done + 0.5) / total
            )

        while due(self.written, len(self.writes)):
            write = self.writes[self.written]
            outcome = self.tally.op(self.written, "bench.update", self.update, self.state, write)
            self.written += 1
            if outcome:
                self.tally.count_write(outcome, write[1])
        while due(self.built, self.setups):
            watch.stop()
            self.tally.resetup(self.build)
            self.built += 1
            watch.start()


def read_loop(
    plan: Plan,
    seconds: float,
    tally: Tally,
    registry: MetricsRegistry,
    events: Interleaved,
    requests: Sequence[Any],
    read: Callable[[Any, Any], Any],
    sources: Callable[[Any], Sequence[str]],
    lines: Callable[[Any, Any], list[str]],
) -> list[tuple[Any, Any]]:
    """Reads back to back until *seconds* pass, with the *events* among them.

    ``read(state, request)`` answers a request that ranks ``sources(request)``;
    ``lines(request, answer)`` is what the digest folds.  Returns the
    prefix's ``(request, answer)`` pairs, answer None where the read raised.
    """
    kept: list[tuple[Any, Any]] = []
    watch = Stopwatch()
    for index, request in enumerate(requests):
        if index == plan.warmup:
            watch.start()
        if index >= plan.prefix:
            events.catch_up(watch)
            if watch.elapsed >= seconds:
                break
        outcome = tally.op(index, "bench.read", read, events.state, request)
        answer = outcome[0] if outcome else None
        if index < plan.prefix:
            kept.append((request, answer))
            tally.fold(lines(request, answer))
        if outcome and index >= plan.warmup:
            tally.count_read(outcome, sources(request))
        if index == plan.prefix - 1:
            tally.snapshot(registry)
    events.catch_up(watch, finish=True)
    tally.end_loop()
    return kept


def rec_lines(principal: str, recs: Sequence[Recommendation] | None) -> list[str]:
    return [f"{principal} -"] + [
        f"{principal} {r.product} {round(r.score, 9)!r} {','.join(r.supporters)}"
        for r in recs or []
    ]


def rank_lines(results: Sequence[AppleseedResult] | None) -> list[str]:
    lines = []
    for result in results or []:
        lines.append(f"{result.source} -")
        lines += [
            f"{result.source} {node} {round(value, 9)!r}"
            for node, value in sorted(result.ranks.items())
        ]
    return lines


def same_recs(served: Sequence[Recommendation], oracle: Sequence[Recommendation]) -> bool:
    return len(served) == len(oracle) and all(
        a.product == b.product
        and a.supporters == b.supporters
        and abs(a.score - b.score) <= TOLERANCE
        for a, b in zip(served, oracle)
    )


def same_ranks(served: AppleseedResult, oracle: AppleseedResult) -> bool:
    return served.ranks.keys() == oracle.ranks.keys() and all(
        abs(value - oracle.ranks[node]) <= TOLERANCE for node, value in served.ranks.items()
    )


def check(tally: Tally, what: str, served: Any, oracle: Callable[[], Any], same: Any) -> None:
    """Compare one served answer with the oracle's; a mismatch is a failure.

    An answer that was never served already counted as a failed operation.
    """
    if served is None:
        return
    try:
        expected = oracle()
    except Exception as exc:  # the oracle must answer whatever the server answered
        tally.failures.append(f"oracle {what}: {exc!r}")
        return
    if not same(served, expected):
        tally.failures.append(f"answer {what} differs from a cold rebuild")


# -- Dataset workloads ----------------------------------------------------


def build_community(
    community: inputs.Community, taxonomy: Taxonomy, bounded: bool, layers: Layers | None
) -> tuple[SemanticWebRecommender, float]:
    """A serving recommender from the records, its instances wrapped by *layers*."""
    return setup_community(
        community, taxonomy, bounded, instrument=layers.instrument if layers else None
    )


def run_hybrid(plan: Plan, seed: int, seconds: float, tally: Tally, registry: MetricsRegistry) -> None:
    """hybrid-bounded and hybrid-open: reads, with a few writes among them."""
    community = inputs.community_records(plan.scale)
    taxonomy = taxonomy_from(community)
    agents = [uri for uri, _ in community.agents]
    rng = random.Random(f"{seed}:hybrid")
    principals = inputs.draws(agents, plan.requests, rng)
    writes = inputs.community_writes(community, plan.probe_writes, rng)
    tally.size = f"{len(agents)} agents, {len(community.products)} books, {len(community.topics)} topics"

    build = partial(build_community, community, taxonomy, plan.bounded)
    recommender = tally.serve(build)
    events = Interleaved(tally, seconds, recommender, build, plan.setups, writes, update)
    answers = read_loop(
        plan,
        seconds,
        tally,
        registry,
        events,
        principals,
        read=recommend,
        sources=lambda principal: (principal,),
        lines=rec_lines,
    )
    del events
    writers = list(dict.fromkeys(write[1] for write in writes))[: plan.sample]
    after = {
        writer: tally.served(f"answer for {writer}", recommend, recommender, writer)
        for writer in writers
    }
    del recommender
    tally.release()

    with collecting(MetricsRegistry()):
        oracle, _ = setup_community(community, taxonomy, plan.bounded)
        for principal, recs in rng.sample(answers[plan.warmup :], plan.sample):
            check(
                tally,
                f"for {principal}",
                recs,
                lambda p=principal: oracle.recommend(p, limit=LIMIT),
                same_recs,
            )
        del oracle
        oracle, _ = setup_community(community, taxonomy, plan.bounded, writes=writes)
        for writer, recs in after.items():
            check(
                tally,
                f"for {writer} after writes",
                recs,
                lambda w=writer: oracle.recommend(w, limit=LIMIT),
                same_recs,
            )


def run_churn(plan: Plan, seed: int, seconds: float, tally: Tally, registry: MetricsRegistry) -> None:
    """churn: each write, the writer's refreshed answer, then reads by others."""
    community = inputs.community_records(plan.scale)
    taxonomy = taxonomy_from(community)
    agents = [uri for uri, _ in community.agents]
    rng = random.Random(f"{seed}:churn")
    cycles = plan.requests // (1 + plan.reads_per_write)
    writes = inputs.community_writes(community, cycles, rng)
    readers = []
    for write in writes:
        row: list[str] = []
        while len(row) < plan.reads_per_write:
            principal = agents[rng.randrange(len(agents))]
            if principal != write[1]:
                row.append(principal)
        readers.append(row)
    checked = set(rng.sample(range(plan.warmup, plan.prefix), plan.sample))
    tally.size = f"{len(agents)} agents, {len(community.products)} books, {len(community.topics)} topics"

    build = partial(build_community, community, taxonomy, plan.bounded)
    recommender = tally.serve(build)
    events = Interleaved(tally, seconds, recommender, build, plan.setups)
    # The answers of each checked cycle, taken right after its write.
    snapshots: list[tuple[int, list[tuple[str, Any]]]] = []
    watch = Stopwatch()
    for cycle, (write, row) in enumerate(zip(writes, readers)):
        if cycle == plan.warmup:
            watch.start()
        if cycle >= plan.prefix:
            events.catch_up(watch)
            if watch.elapsed >= seconds:
                break
        measured = cycle >= plan.warmup
        # A cycle is traced or not as a whole.
        outcome = tally.op(cycle, "bench.update", update, recommender, write)
        answers = [(write[1], outcome[0] if outcome else None)]
        if outcome and measured:
            tally.count_write(outcome, write[1])
        for principal in row:
            outcome = tally.op(cycle, "bench.read", recommend, recommender, principal)
            answers.append((principal, outcome[0] if outcome else None))
            if outcome and measured:
                tally.count_read(outcome, (principal,))
        if cycle < plan.prefix:
            for principal, recs in answers:
                tally.fold(rec_lines(principal, recs))
        if cycle in checked:
            snapshots.append((cycle, answers))
        if cycle == plan.prefix - 1:
            tally.snapshot(registry)
    events.catch_up(watch, finish=True)
    tally.end_loop()
    del recommender, events
    tally.release()

    with collecting(MetricsRegistry()):
        for cycle, answers in snapshots:
            oracle, _ = setup_community(
                community, taxonomy, plan.bounded, writes=writes[: cycle + 1]
            )
            for principal, recs in answers:
                check(
                    tally,
                    f"for {principal} after write {cycle}",
                    recs,
                    lambda p=principal: oracle.recommend(p, limit=LIMIT),
                    same_recs,
                )
            del oracle


# -- trust-sweep --------------------------------------------------------------


def run_sweep(plan: Plan, seed: int, seconds: float, tally: Tally, registry: MetricsRegistry) -> None:
    """trust-sweep: serial ``rank_many`` calls over seeded source batches."""
    edges = inputs.trust_edges(plan.nodes)
    nodes = list(dict.fromkeys(source for source, _, _ in edges))
    rng = random.Random(f"{seed}:sweep")
    batches = [inputs.draws(nodes, plan.batch, rng) for _ in range(plan.requests // plan.batch)]
    writes = inputs.edge_writes(nodes, plan.probe_writes, rng)
    tally.size = f"{len(nodes)} nodes, {len(edges)} edges"

    def build(layers: Layers | None) -> tuple[Any, float]:
        return setup_graph(edges)

    graph = tally.serve(build)
    events = Interleaved(tally, seconds, graph, build, plan.setups, writes, update_graph)
    answers = read_loop(
        plan,
        seconds,
        tally,
        registry,
        events,
        batches,
        read=rank,
        sources=lambda batch: batch,
        lines=lambda batch, results: rank_lines(results),
    )
    del events
    kept = [result for _, results in answers for result in results or []]
    writers = list(dict.fromkeys(write[1] for write in writes))[: plan.sample]
    after = tally.served(f"ranks of {writers}", rank, graph, writers) or []
    del graph
    tally.release()

    with collecting(MetricsRegistry()):
        oracle, _ = setup_graph(edges)
        sample = rng.sample(kept, min(plan.sample, len(kept)))
        expected = rank(oracle, [result.source for result in sample])
        for got, result in zip(sample, expected):
            check(tally, f"ranks of {got.source}", got, lambda r=result: r, same_ranks)
        del oracle, expected
        oracle, _ = setup_graph(edges, writes)
        expected = rank(oracle, writers)
        for got, result in zip(after, expected):
            check(tally, f"ranks of {got.source} after writes", got, lambda r=result: r, same_ranks)


RUNNERS = {
    "hybrid-bounded": run_hybrid,
    "hybrid-open": run_hybrid,
    "churn": run_churn,
    "trust-sweep": run_sweep,
}


# -- metrics -----------------------------------------------------------------

#: ``(unit, better)`` of every end-to-end metric, in print order.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "update_visible_p50_ms": ("ms", "lower"),
    "sources_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Tail latencies, printed by every untraced run but kept out of the
#: result object: on a shared host their spread over ten seeds was 0.2
#: to 0.3 of the median, wider than any bound the metrics can hold.
TAILS: dict[str, tuple[str, str]] = {
    "query_p90_ms": ("ms", "lower"),
    "update_visible_p90_ms": ("ms", "lower"),
}


def quantile(values: Sequence[float], q: float) -> float:
    """The *q* quantile by linear interpolation between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(tally: Tally) -> dict[str, float]:
    # Throughputs count reads only, over the reads' own scaled time.
    read_s = tally.read_s
    return {
        "setup_s": statistics.median(tally.setup_s),
        "query_p50_ms": quantile(tally.read_ms, 0.5),
        "query_p90_ms": quantile(tally.read_ms, 0.9),
        "queries_per_s": tally.reads / read_s if read_s > 0 else 0.0,
        "update_visible_p50_ms": quantile(tally.update_ms, 0.5),
        "update_visible_p90_ms": quantile(tally.update_ms, 0.9),
        "sources_per_s": tally.sources / read_s if read_s > 0 else 0.0,
        "peak_rss_mb": tally.peak_rss_mb,
    }


@dataclass
class Outcome:
    """One run's report: the lines to print and the result object."""

    lines: list[str]
    result: dict[str, Any]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, plan: Plan | None = None, trace_path: Any = None
) -> Outcome:
    """Run workload *name* once and report it (see the module docstring)."""
    plan = plan or PLANS[name]
    tracer = Tracer() if trace else None
    tally = Tally(layers=Layers(tracer) if tracer else None)
    with collecting(MetricsRegistry()) as registry:
        RUNNERS[name](plan, seed, seconds, tally, registry)
    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    repeats = len(tally.principals) - len(set(tally.principals))
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}: {tally.size}",
        f"samples: {len(tally.read_ms)} reads, {len(tally.update_ms)} updates, "
        f"{len(tally.traced_read_ms)} traced reads, {len(tally.traced_update_ms)} traced updates, "
        f"{len(tally.setup_s)} setups",
        "setup seconds " + " ".join(f"{took:.4f}" for took in tally.setup_s),
        f"repeated principals: {repeats / max(len(tally.principals), 1):.4f} "
        f"of {len(tally.principals)}",
        f"digest {tally.digest.hexdigest()} over the first {plan.prefix} operations",
        "counts " + json.dumps(tally.counts, sort_keys=True),
        f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted})",
        f"pace: median probe {1000.0 * quantile(tally.pace.probes, 0.5):.4f} ms over "
        f"{len(tally.pace.probes)} probes; times are scaled to {1000.0 * REFERENCE_S:g} ms",
        f"unscaled query_p50_ms {quantile(tally.wall_read_ms, 0.5):.4f} ms",
    ]
    lines += [f"failure: {failure}" for failure in tally.failures]
    if tracer is None:
        metrics = end_to_end(tally)
        units = END_TO_END
        lines += [f"{key} {metrics.pop(key)!r} {unit}" for key, (unit, _) in TAILS.items()]
    else:
        records = tracer.records()
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
            lines.append(f"trace: {len(records)} spans in {trace_path}")
        metrics = per_layer(records, registry, tally.traced_read_ms, tally.read_ms)
        units = PER_LAYER
    lines += [f"{key} {metrics[key]!r} {units[key][0]}" for key in units]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key][0]} for key in units},
    }
    return Outcome(lines, result)
