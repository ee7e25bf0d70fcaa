"""The ``align`` workload: the paper's Table 1 run, in process, one caller.

Each pass generates a few YAGO/DBpedia-like worlds from the seed (the
set-up) and runs :func:`run_table1_experiment` (three methods, both
directions, sample size 10) round-robin over them until the time is up.
A request is one ``SofyaAligner.align_relation`` call: the wait of a
user who asks for one relation to be aligned on the fly.  Every Table 1
run starts from an empty parse cache after a full garbage collection,
so runs do not inherit each other's caches or collector state.

The store is unsharded and the aligner runs in process; see
``perfbench/README.md`` for why (4 shards change Table 1, and the HTTP
client cannot drive the aligner).

Output check, every run:

* the world of seed 2016 must reproduce the pinned Table 1: accepted
  rules digest, per-method precision and F1, and 3124 queries spent;
* every repeat of Table 1 on a world must equal its first run (digest
  and queries), and precision/F1 recomputed from the accepted pairs and
  the gold standard must equal the reported ones.

A mismatch fails every relation of the Table 1 run it was found in.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from typing import Dict, List, Optional

from perfbench.common import Outcome, median, percentile, ratio
from perfbench.spans import SpanTracer

#: The world whose Table 1 is pinned below.
PINNED_SEED = 2016

#: Table 1 of the seed-2016 world: ``{method: {direction: (P, F1)}}``
#: (rounded to three places), average F1 per method, queries spent and
#: the digest of every accepted rule (see :func:`report_digest`).
PINNED = {
    "queries": 3124,
    "average_f1": {"pca": 0.824, "cwa": 0.846, "ubs": 0.958},
    "directions": {
        "pca": {"dbpedia ⊂ yago": [0.824, 0.875], "yago ⊂ dbpedia": [0.829, 0.773]},
        "cwa": {"dbpedia ⊂ yago": [0.812, 0.839], "yago ⊂ dbpedia": [0.833, 0.854]},
        "ubs": {"dbpedia ⊂ yago": [0.967, 0.967], "yago ⊂ dbpedia": [0.974, 0.949]},
    },
    "digest": "825e0bb66453783d",
}

#: Worlds generated (and timed as set-up) per pass: 5 x 225 relations,
#: enough for a p99 over relations with ten beyond it.
WORLDS = 5
#: Table 1 runs per world at least, so each relation's fastest repeat
#: has several chances to miss the first (cold) run and a slow spell.
REPEATS = 3


def world_spec(seed: int, tiny: bool):
    from repro.synthetic.presets import yago_dbpedia_spec

    if tiny:
        return yago_dbpedia_spec(
            families=5, people=60, works=40, places=20, orgs=15,
            yago_relation_count=20, dbpedia_relation_count=40, seed=seed,
        )
    return yago_dbpedia_spec(seed=seed)


def world_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _entries(report):
    for method in report.methods:
        for label in sorted(method.directions):
            yield method, label, method.directions[label]


def table1_queries(report) -> int:
    return int(sum(entry.result.total_queries() for _, _, entry in _entries(report)))


def table1_relations(report) -> int:
    return sum(len(entry.result) for _, _, entry in _entries(report))


def report_digest(report) -> str:
    """A digest of every accepted rule, threshold, precision and F1."""
    rows = []
    for method, label, entry in _entries(report):
        rules = sorted(
            (rule.premise.relation.value, rule.conclusion.relation.value,
             round(rule.confidence, 9))
            for rule in entry.result.accepted_rules(entry.threshold)
        )
        rows.append([
            method.method, label, round(entry.threshold, 9), rules,
            round(entry.precision, 9), round(entry.f1, 9),
        ])
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def report_table(report) -> Dict[str, Dict[str, List[float]]]:
    return {
        method.method: {
            label: [round(entry.precision, 3), round(entry.f1, 3)]
            for label, entry in sorted(method.directions.items())
        }
        for method in report.methods
    }


def _recheck_scores(report, outcome: Outcome) -> bool:
    """Recompute P/F1 from the accepted pairs and gold; False on mismatch."""
    ok = True
    for method, label, entry in _entries(report):
        predicted = entry.result.predicted_pairs(threshold=entry.threshold)
        gold = entry.gold
        hits = len(predicted & gold)
        precision = hits / len(predicted) if predicted else (0.0 if gold else 1.0)
        recall = hits / len(gold) if gold else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if abs(precision - entry.precision) > 1e-9 or abs(f1 - entry.f1) > 1e-9:
            outcome.problem(
                f"{method.method} {label}: reported P/F1 "
                f"{entry.precision:.4f}/{entry.f1:.4f}, recomputed "
                f"{precision:.4f}/{f1:.4f}"
            )
            ok = False
    return ok


def _table1(world):
    """One Table 1 run from a cold parse cache and a collected heap.

    Returns the report and the seconds the run itself took.
    """
    from repro.endpoint.endpoint import clear_parse_cache
    from repro.evaluation.experiment import run_table1_experiment

    clear_parse_cache()
    gc.collect()
    started = time.perf_counter()
    report = run_table1_experiment(world, sample_size=10)
    return report, time.perf_counter() - started


def check_pinned(outcome: Outcome) -> None:
    """Run Table 1 on the seed-2016 world and compare with :data:`PINNED`."""
    from repro.synthetic.generator import generate_world

    report, _ = _table1(generate_world(world_spec(PINNED_SEED, tiny=False)))
    problems = len(outcome.problems)
    queries = table1_queries(report)
    if queries != PINNED["queries"]:
        outcome.problem(f"pinned Table 1 spent {queries} queries, not {PINNED['queries']}")
    for method in report.methods:
        expected = PINNED["average_f1"][method.method]
        if round(method.average_f1(), 3) != expected:
            outcome.problem(
                f"pinned Table 1: {method.method} average F1 "
                f"{method.average_f1():.3f}, not {expected}"
            )
    if report_table(report) != PINNED["directions"]:
        outcome.problem(f"pinned Table 1 P/F1 differ: {report_table(report)}")
    if report_digest(report) != PINNED["digest"]:
        outcome.problem(f"pinned Table 1 rule digest {report_digest(report)} differs")
    _recheck_scores(report, outcome)
    outcome.attempted += table1_relations(report)
    if len(outcome.problems) > problems:
        outcome.failed += table1_relations(report)


def run(seed: int, seconds: float, tiny: bool, tracer: Optional[SpanTracer],
        pinned: bool) -> Outcome:
    """One pass of the workload; ``tracer`` (if any) is installed around it.

    Each relation's latency is its fastest of at least :data:`REPEATS`
    runs of its world: interference from other load on the host only
    ever adds time, and comes in spells of seconds to minutes, so the
    fastest repeat is the steadiest estimate of what the code costs.
    ``request_p50_ms`` / ``request_p99_ms`` are taken over those
    per-relation figures, and ``capacity_rps`` is relations per second
    of their sum.  World generation does not count against the measuring
    time.  ``queries_per_request`` counts each world once.
    """
    from repro.align.aligner import SofyaAligner
    from repro.synthetic.generator import generate_world

    from perfbench import layers

    outcome = Outcome()
    if pinned:
        check_pinned(outcome)

    seeds = world_seeds(seed, 1 if tiny else WORLDS)
    worlds: List[Optional[object]] = [None] * len(seeds)
    setups: List[float] = []

    def generate(index: int) -> float:
        worlds[index] = None
        started = time.perf_counter()
        worlds[index] = generate_world(world_spec(seeds[index], tiny))
        setups.append(time.perf_counter() - started)
        return setups[-1]

    first: List[Optional[tuple]] = [None] * len(worlds)
    table_seconds: List[float] = []
    # (world, position in the run) -> latency of each repeat; a run makes
    # its align_relation calls in a fixed order, so a position is a relation.
    latencies: Dict[tuple, List[float]] = {}
    with SpanTracer() as timer:
        timer.wrap(SofyaAligner, "align_relation", "request")
        requests = timer.layer("request").durations
        if tracer is not None:
            layers.install(tracer)
            before = layers.engine_counters()
        try:
            deadline = time.perf_counter() + seconds
            turn = 0
            while turn < REPEATS * len(worlds) or time.perf_counter() < deadline:
                index, round_ = turn % len(worlds), turn // len(worlds)
                turn += 1
                # The first round generates each world just before its
                # run; each later round regenerates one.  The set-up
                # samples then span the pass, and a regenerated world
                # must give the same Table 1 as the first.
                if round_ == 0:
                    deadline += generate(index)
                elif index == 0:
                    deadline += generate(round_ % len(worlds))
                done = len(requests)
                report, elapsed = _table1(worlds[index])
                table_seconds.append(elapsed)
                outcome.sample_memory()
                relations = len(requests) - done
                for position, latency in enumerate(requests[done:]):
                    latencies.setdefault((index, position), []).append(latency)
                outcome.attempted += relations
                signature = (report_digest(report), table1_queries(report), relations)
                if first[index] is None:
                    first[index] = signature
                ok = _recheck_scores(report, outcome)
                if signature != first[index]:
                    outcome.problem(
                        f"world {index}: Table 1 repeat gave {signature}, first run {first[index]}"
                    )
                    ok = False
                if not ok:
                    outcome.failed += relations
        finally:
            if tracer is not None:
                counters = layers.counter_delta(before, layers.engine_counters())
                tracer.restore()

    per_relation = [min(repeats) for repeats in latencies.values()]
    queries = sum(signature[1] for signature in first)
    outcome.metrics.update(
        setup_s=median(setups),
        request_p50_ms=percentile(per_relation, 50) * 1000.0,
        request_p99_ms=percentile(per_relation, 99) * 1000.0,
        capacity_rps=len(per_relation) / sum(per_relation),
        queries_per_request=ratio(queries, sum(signature[2] for signature in first)),
    )
    outcome.notes.append(
        f"align: {len(table_seconds)} Table 1 runs over {len(worlds)} worlds, "
        f"{len(per_relation)} relations, table1 median {median(table_seconds):.3f}s, "
        f"{ratio(queries, len(worlds)):.0f} queries per run"
    )
    if tracer is not None:
        wall = sum(table_seconds)
        metrics = layers.layer_metrics(tracer, counters)
        unattributed = wall - layers.attributed_seconds(tracer)
        metrics.update({
            "align.table1_s": median(table_seconds),
            "align.queries_spent": ratio(queries, len(worlds)),
            "unattributed_ms": ratio(unattributed * 1000.0, len(requests)),
            "unattributed.share": ratio(unattributed, wall),
        })
        outcome.metrics.update(metrics)
    return outcome
