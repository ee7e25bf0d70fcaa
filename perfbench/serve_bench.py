"""The serving workload, ``serve_read``: SPARQL reads over HTTP, then live writes.

It serves ``scale_world_spec("100k", seed)`` from a ``SparqlHttpServer``
over a 4-shard store on the process backend, and drives it from a
separate load-generator process (:mod:`perfbench.loadgen`) with the Zipf
query mix of :mod:`perfbench.mix`.

The server boots five times (the set-up).  Boots 1, 2, 4 and 5 each
take one ``refresh(mutate=...)`` burst of 2000 new triples (new
subjects, existing predicates and objects) and stop, so every freshly
opened server's first refresh is timed.  On the third, one keep-alive
connection measures closed-loop capacity, then two measure latency at a
fixed offered rate; after the reads, :data:`REFRESHES` bursts are
refreshed in one after the other.  The writes come after the reads and not beside
them: after the first write the store is thawed into Python objects,
and collector pauses of up to 0.3 s over it then land at random among
the reads, which spreads read latency by 40-50% from run to run.

Each measured phase starts after a full garbage collection, and the
reference answers are built only after the server has stopped, so the
benchmark's own garbage is not collected inside a measured window.

Output check: a seeded sample of responses from every read phase is
compared with an in-process ``QueryEvaluator`` over an identical
unsharded store, and after the writes a seeded sample of queries is
answered by the server and compared with that store plus every burst.
After each shutdown no worker process may be left running.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import layers, mix
from perfbench.common import (
    Outcome, mean_ms, median, percentile, process_alive, ratio, windowed_percentile,
)
from perfbench.spans import SpanTracer

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

SHARDS = 4
#: Server boots per pass, and which of them is measured.  The others
#: boot before and after it, so the set-up samples span the whole pass
#: and one slow spell on the host cannot cover all of them.
SETUPS = 5
MEASURED = 2
POOL_SIZE = 20_000
#: Connections of the closed loop and of the fixed-rate phase.  One
#: closed-loop connection already keeps the server's request thread
#: busy; a second one only adds contention for the 2 cores of the
#: reference box and made capacity swing by 25% from run to run.
CLOSED_CONNECTIONS = 1
OPEN_CONNECTIONS = 2
#: Fixed offered rate: a sixth of the closed-loop capacity this workload
#: measures on a quiet 2-core x86-64 box (~300/s over one connection),
#: and still a third when other load on the host halves it, so latency
#: measures service, not queueing.  At 100/s such a halving made the
#: median latency jump from 1.5 ms to 8-11 ms.
READ_RATE = 50.0
#: Share of the measuring time spent in the closed loop, and the windows
#: whose median throughput is the capacity (a short noise burst on the
#: host then moves one window, not the figure).
CLOSED_SHARE = 0.3
CAPACITY_WINDOW = 1.0
#: Triples per refresh, and refreshes on the measured server.
BURST = 2_000
REFRESHES = 6
#: Responses checked per phase, and queries profiled per traced pass.
SAMPLE = 60
PROFILED = 30
#: Upper bound on closed-loop throughput, to size its request stream.
MAX_RPS = 3000


class Server:
    """One freshly built world served over HTTP; ``setup_seconds`` timed."""

    def __init__(self, spec, directory: Path, metrics):
        from repro.http import serve_http
        from repro.synthetic.stream import generate_scale_world

        started = time.perf_counter()
        world = generate_scale_world(spec, shard_count=SHARDS)
        self.running = serve_http(
            store=world.store, name="bench", backend="process",
            snapshot_dir=directory, metrics=metrics,
        )
        # One query over every shard, so the set-up includes worker boot.
        self.endpoint.query(
            f"SELECT ?s WHERE {{ ?s <{spec.namespace.base}p0> <{spec.namespace.base}e0> }}"
        )
        self.setup_seconds = time.perf_counter() - started
        self.directory = directory
        self.pids = set()
        self.note_pids()

    @property
    def endpoint(self):
        return self.running.server.endpoint

    @property
    def executor(self):
        return self.endpoint.executor

    def worker_pids(self) -> List[int]:
        """PIDs of the serving pool."""
        return [pid for pid in self.executor.worker_pids() if pid]

    def note_pids(self) -> None:
        self.pids.update(self.worker_pids())

    def sample_memory(self, outcome: Outcome) -> None:
        outcome.sample_memory(self.worker_pids())

    def snapshot_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.directory.iterdir())

    def stop(self, outcome: Outcome) -> None:
        """Stop the server; any worker process still running is a mismatch."""
        self.running.stop()
        leaked = [pid for pid in self.pids if process_alive(pid)]
        leaked += [child.pid for child in multiprocessing.active_children()]
        if leaked:
            outcome.problem(f"worker processes left running after shutdown: {sorted(set(leaked))}")


class Writer:
    """Refreshes one server with seeded bursts of new triples."""

    def __init__(self, spec, seed: int, burst: int):
        self._spec = spec
        self._seed = seed
        self._burst = burst
        self.seconds: List[float] = []
        self.paused: List[float] = []
        self.mutate_seconds: List[float] = []
        self.bursts: List[list] = []

    def _triples(self, generation: int) -> list:
        from repro.rdf.triple import Triple

        rng = random.Random(self._seed * 1_000_003 + generation)
        ns = self._spec.namespace
        return [
            Triple(
                ns.term(f"w{generation}_{index // 4}"),
                ns.term(f"p{index % self._spec.predicates}"),
                ns.term(f"e{rng.randrange(self._spec.entities)}"),
            )
            for index in range(self._burst)
        ]

    def refresh(self, server: Server, outcome: Outcome) -> None:
        """One writer-observed ``refresh()``; a failure is a failed write."""
        triples = self._triples(len(self.bursts))

        def mutate(store) -> None:
            started = time.perf_counter()
            store.add_all(triples)
            self.mutate_seconds.append(time.perf_counter() - started)
            self.bursts.append(triples)

        outcome.attempted += 1
        started = time.perf_counter()
        try:
            report = server.running.refresh(mutate=mutate)
        except Exception as error:  # noqa: BLE001 - counted as a failed write
            outcome.failed += 1
            outcome.problem(f"refresh failed: {type(error).__name__}: {error}")
        else:
            self.seconds.append(time.perf_counter() - started)
            self.paused.append(report["paused_seconds"])
        server.note_pids()


def drive(server: Server, pool: List[mix.Query], phase: "Phase", mode: str,
          seconds: float, rate: float = 0.0) -> dict:
    """One load-generator phase; returns its records and kept bodies."""
    plan = {
        "host": server.running.host, "port": server.running.port,
        "pool": [query.text for query in pool], "stream": phase.indices,
        "keep": phase.keep, "mode": mode,
        "connections": OPEN_CONNECTIONS if mode == "open" else CLOSED_CONNECTIONS,
        "seconds": seconds, "rate": rate,
    }
    gc.collect()
    done = subprocess.run(
        [sys.executable, str(LOADGEN)], input=json.dumps(plan),
        capture_output=True, text=True, timeout=seconds + 120, check=True,
    )
    return json.loads(done.stdout)


class Phase:
    """A request stream, the responses to keep, and what came back."""

    def __init__(self, pool, stream, rng: random.Random, count: int, reach: int):
        self.indices = stream.draw(count)
        self.queries = [pool[index] for index in self.indices]
        self.keep = sorted(rng.sample(range(min(count, reach)), min(SAMPLE, count, reach)))
        self.result: Optional[dict] = None

    def records(self) -> List[list]:
        return self.result["records"]

    def bodies(self) -> Dict[int, str]:
        """Kept response bodies of the requests answered 200."""
        answered = {record[0] for record in self.records() if record[4] == 200}
        return {
            int(key): body for key, body in self.result["bodies"].items()
            if int(key) in answered
        }


def _check(checked: Dict[mix.Query, str], reference: mix.Reference, outcome: Outcome) -> None:
    """Check response bodies; each mismatch is a failed request."""
    for query, body in checked.items():
        reason = mix.check(query, body, reference)
        if reason is not None:
            outcome.failed += 1
            outcome.problem(f"{query.kind} {query.text[-90:]!r}: {reason}")
    if len(checked) < 10:
        outcome.problem(f"only {len(checked)} sampled responses came back to check")


def _window_rates(finishes: List[float], windows: int) -> List[float]:
    """Requests per second in ``windows`` runs of equally many completions.

    ``finishes`` are sorted completion times since the phase start.
    """
    rates = []
    start = 0.0
    for window in range(windows):
        chunk = finishes[len(finishes) * window // windows:len(finishes) * (window + 1) // windows]
        if chunk and chunk[-1] > start:
            rates.append(len(chunk) / (chunk[-1] - start))
            start = chunk[-1]
    return rates


@dataclass
class Totals:
    """What one pass measured, over the measured server and all writes."""

    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    #: Answered requests per second in each window of the closed loop.
    capacity: List[float] = field(default_factory=list)
    client_seconds: float = 0.0
    requests: int = 0
    #: Requests sent, by query kind.
    kinds: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    protocol: Dict[str, float] = field(default_factory=dict)
    exec_spans: list = field(default_factory=list)
    #: Writer-observed refreshes, their intake pauses and mutate calls.
    refreshes: List[float] = field(default_factory=list)
    paused: List[float] = field(default_factory=list)
    mutates: List[float] = field(default_factory=list)
    first_refresh: List[float] = field(default_factory=list)
    chain_length: int = 0
    snapshot_growth: int = 0
    triples_written: int = 0

    def add_writer(self, writer: Writer) -> None:
        if writer.seconds:
            self.first_refresh.append(writer.seconds[0])
        self.refreshes.extend(writer.seconds)
        self.paused.extend(writer.paused)
        self.mutates.extend(writer.mutate_seconds)


class Workload:
    """The fixed inputs of one pass: world spec, pool, stream, phase sizes."""

    def __init__(self, seed: int, seconds: float, tiny: bool):
        from repro.synthetic.stream import scale_world_spec

        self.seed = seed
        self.tiny = tiny
        self.spec = scale_world_spec("13k" if tiny else "100k", seed=seed)
        self.pool = mix.build_pool(self.spec, 2_000 if tiny else POOL_SIZE, seed)
        self.stream = mix.ZipfStream(len(self.pool), seed + 1)
        self.rng = random.Random(seed + 2)
        self.rate = READ_RATE / (4 if tiny else 1)
        self.burst = 200 if tiny else BURST
        self.closed_seconds = CLOSED_SHARE * seconds
        self.open_seconds = seconds - self.closed_seconds

    def phases(self) -> List[Phase]:
        closed = Phase(
            self.pool, self.stream, self.rng,
            int(MAX_RPS * self.closed_seconds) + 1, int(40 * self.closed_seconds) + 1,
        )
        count = int(self.rate * self.open_seconds) + 1
        return [closed, Phase(self.pool, self.stream, self.rng, count, count)]

    def writer(self, index: int) -> Writer:
        return Writer(self.spec, self.seed * SETUPS + index, self.burst)


def _read(load: Workload, server: Server, outcome: Outcome) -> List[Phase]:
    """The measured reads: closed loop, then the fixed offered rate."""
    closed, opened = phases = load.phases()
    closed.result = drive(server, load.pool, closed, "closed", load.closed_seconds)
    server.sample_memory(outcome)
    opened.result = drive(server, load.pool, opened, "open", load.open_seconds, load.rate)
    server.sample_memory(outcome)
    return phases


def _tally_reads(load: Workload, closed: Phase, opened: Phase, totals: Totals,
                 outcome: Outcome) -> None:
    totals.capacity.extend(_window_rates(
        sorted(record[3] for record in closed.records() if record[4] == 200),
        max(1, int(load.closed_seconds / CAPACITY_WINDOW)),
    ))
    for phase in (closed, opened):
        for record in phase.records():
            totals.requests += 1
            kind = phase.queries[record[0]].kind
            totals.kinds[kind] = totals.kinds.get(kind, 0) + 1
            totals.client_seconds += record[3] - record[2]
            if record[4] != 200:
                outcome.failed += 1
        outcome.attempted += len(phase.records())
        for error in phase.result["errors"]:
            outcome.problem(f"load generator: {error}")
    for record in sorted(opened.records(), key=lambda record: record[1]):
        totals.latencies.append(record[3] - record[1] if record[4] == 200 else float("inf"))
        totals.late.append(max(0.0, record[2] - max(record[1], record[6])))


def _measure(load: Workload, server: Server, writer: Writer, tracer: Optional[SpanTracer],
             totals: Totals, outcome: Outcome) -> tuple:
    """Reads, then writes, on the measured server.

    Traced, the reads run with the query layers wrapped and the writes
    with the refresh path wrapped.  The profiled sample runs between
    them, untraced, so only requests served over HTTP feed the read
    figures.  Returns the read phases and the bodies the server gives
    after the writes for a seeded sample of queries.
    """
    from repro.sparql.serialize import to_sparql_json

    size_before = server.snapshot_bytes()
    stats_before = server.executor.protocol_stats()
    if tracer is not None:
        layers.install(tracer)
        counters_before = layers.engine_counters()
    try:
        closed, opened = phases = _read(load, server, outcome)
    finally:
        if tracer is not None:
            totals.counters = layers.counter_delta(counters_before, layers.engine_counters())
            tracer.restore()
    totals.protocol = layers.counter_delta(stats_before, server.executor.protocol_stats())
    if tracer is not None:
        for query in load.rng.sample(load.pool, PROFILED):
            totals.exec_spans.extend(
                server.endpoint.profile(query.text).trace.find_all("worker:exec")
            )
        layers.install_writes(tracer)
    try:
        for _ in range(REFRESHES):
            writer.refresh(server, outcome)
    finally:
        if tracer is not None:
            tracer.restore()
    _tally_reads(load, closed, opened, totals, outcome)
    totals.triples_written = sum(len(triples) for triples in writer.bursts)
    manifest = json.loads((server.directory / "manifest.json").read_text())
    totals.chain_length = max(len(shard["deltas"]) for shard in manifest["shards"])
    totals.snapshot_growth = server.snapshot_bytes() - size_before

    written = {}
    for query in load.rng.sample(load.pool, SAMPLE):
        outcome.attempted += 1
        written[query] = to_sparql_json(server.endpoint.query(query.text))
    return phases, written


def _check_against_reference(load: Workload, phases: List[Phase], written: Dict[mix.Query, str],
                             bursts: List[list], outcome: Outcome) -> None:
    """Check the measured server's answers against a fresh reference store."""
    from repro.synthetic.stream import generate_scale_world

    store = generate_scale_world(load.spec).store
    read = {}
    for phase in phases:
        read.update((phase.queries[index], body) for index, body in phase.bodies().items())
    _check(read, mix.Reference(store), outcome)
    for triples in bursts:
        for triple in triples:
            store.add(triple)
    _check(written, mix.Reference(store), outcome)


def _serve(load: Workload, index: int, work: Path, http_metrics,
           tracer: Optional[SpanTracer], totals: Totals, outcome: Outcome) -> float:
    """Boot one server, drive it, stop it and check it.

    Server :data:`MEASURED` is measured; the others take one refresh.
    Returns the set-up seconds.  Nothing outlives the call but figures,
    so a stopped server's store is freed before the next one boots.
    """
    server = Server(load.spec, work / f"snapshot{index}", http_metrics)
    writer = load.writer(index)
    measured = None
    try:
        if index == MEASURED:
            measured = _measure(load, server, writer, tracer, totals, outcome)
        else:
            writer.refresh(server, outcome)
    finally:
        server.stop(outcome)
    totals.add_writer(writer)
    if measured is not None:
        _check_against_reference(load, *measured, writer.bursts, outcome)
    return server.setup_seconds


def run(workload: str, seed: int, seconds: float, tiny: bool,
        tracer: Optional[SpanTracer], work: Path) -> Outcome:
    from repro.obs.metrics import MetricsRegistry

    load = Workload(seed, seconds, tiny)
    outcome = Outcome()
    totals = Totals()
    setups: List[float] = []
    # HTTP telemetry; set-up queries and the post-write check bypass HTTP.
    http_metrics = MetricsRegistry()

    for index in range(SETUPS):
        gc.collect()
        setups.append(_serve(load, index, work, http_metrics, tracer, totals, outcome))

    hits = http_metrics.value("http.cache.hits")
    misses = http_metrics.value("http.cache.misses")
    outcome.metrics.update(
        setup_s=median(setups),
        request_p50_ms=windowed_percentile(totals.latencies, 50) * 1000.0,
        request_p99_ms=windowed_percentile(totals.latencies, 99) * 1000.0,
        capacity_rps=median(totals.capacity),
        queries_per_request=ratio(misses, hits + misses),
    )
    outcome.notes.append(
        f"{workload}: {totals.requests} requests ({len(totals.latencies)} at {load.rate:g}/s), "
        f"capacity {outcome.metrics['capacity_rps']:.1f}/s, "
        f"p50 {outcome.metrics['request_p50_ms']:.2f}ms p99 {outcome.metrics['request_p99_ms']:.2f}ms, "
        f"{len(totals.refreshes)} refreshes (first {[round(s * 1000) for s in totals.first_refresh]} ms), "
        "kinds sent " + ", ".join(
            f"{kind} {count / totals.requests:.1%}" for kind, count in sorted(totals.kinds.items())
        )
    )
    if tracer is not None:
        outcome.metrics.update(_layer_metrics(tracer, totals, http_metrics))
    return outcome


def _layer_metrics(tracer: SpanTracer, totals: Totals, http_metrics) -> Dict[str, float]:
    metrics = layers.layer_metrics(tracer, totals.counters)
    endpoint = tracer.layers.get("endpoint")
    serialize = tracer.layers.get("serialize")
    evaluate = tracer.layers.get("evaluate")
    boot = tracer.layers.get("boot")
    save_delta = tracer.layers.get("save_delta")
    served = (endpoint.total if endpoint else 0.0) + (serialize.total if serialize else 0.0)
    result_rows = evaluate.counts.get("rows", 0) if evaluate else 0
    evaluations = evaluate.calls if evaluate else 0
    server_latency = http_metrics.histogram("http.latency")
    hits = http_metrics.value("http.cache.hits")
    misses = http_metrics.value("http.cache.misses")
    protocol = totals.protocol
    exec_spans = totals.exec_spans
    unattributed = totals.client_seconds - served
    metrics.update({
        "workers.rows_per_result_row": ratio(protocol.get("rows", 0), result_rows),
        "workers.batches_per_query": ratio(protocol.get("row_batches", 0), evaluations),
        "workers.acks_per_query": ratio(protocol.get("acks", 0), evaluations),
        "workers.queue_wait_ms": ratio(
            sum(span.attributes.get("queue_wait_ms", 0.0) for span in exec_spans),
            len(exec_spans),
        ),
        "workers.exec_ms": mean_ms(
            sum(span.duration or 0.0 for span in exec_spans), len(exec_spans)
        ),
        "workers.crashed": protocol.get("crashed", 0),
        "workers.boot_ms": mean_ms(boot.total, boot.calls) if boot else 0.0,
        "http.server_p50_ms": server_latency.percentile(50) * 1000.0,
        "http.server_p99_ms": server_latency.percentile(99) * 1000.0,
        "http.edge_self_ms": mean_ms(server_latency.sum - served, server_latency.count),
        "http.client_side_ms": mean_ms(
            totals.client_seconds - server_latency.sum, totals.requests
        ),
        "http.cache_hit_ratio": ratio(hits, hits + misses),
        "http.rejected": sum(
            http_metrics.value(name) for name in ("http.responses.429", "http.responses.503")
        ),
        "loadgen.late_p99_ms": percentile(totals.late, 99) * 1000.0,
        "refresh.writer_p50_ms": percentile(totals.refreshes, 50) * 1000.0,
        "refresh.first_ms": median(totals.first_refresh) * 1000.0,
        "refresh.paused_ms": mean_ms(sum(totals.paused), len(totals.paused)),
        "refresh.mutate_ms": mean_ms(sum(totals.mutates), len(totals.mutates)),
        "persist.save_delta_ms": (
            mean_ms(save_delta.total, save_delta.calls) if save_delta else 0.0
        ),
        "persist.bytes_per_triple": ratio(totals.snapshot_growth, totals.triples_written),
        "persist.chain_length": totals.chain_length,
        "unattributed_ms": mean_ms(unattributed, totals.requests),
        "unattributed.share": ratio(unattributed, totals.client_seconds),
    })
    return metrics
