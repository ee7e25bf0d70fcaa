"""Record snapshot-persistence benchmark numbers into ``BENCH_persist.json``.

Measures, on the largest synthetic preset (the paper-scale
YAGO-like/DBpedia-like pair):

* **Cold open vs rebuild** — ``cold_open_ms``: ``TripleStore.open`` of a
  saved snapshot (mmap, checksums verified) vs ``rebuild_ms``: the
  columnar ``bulk_load`` of the same triples from Triple objects (the
  path every process start paid before this PR).  ``cold_open_speedup``
  is the headline number; the acceptance gate requires >= 5x.
* **First-query latency** — ``first_join_cold_ms``: the first planned
  3-pattern join on a freshly cold-opened store (dictionary base probes,
  mmap'd index bisects, first-page faults and all) vs
  ``first_join_warm_ms``: the same join on the warm store — the
  bulk-loaded generated store, whose CSR index bases are in memory —
  with a fresh evaluator (plan cache cold).  The gate requires the
  ratio <= 1.5.
* **Resident memory** — ``rss_cold_open_kb`` vs
  ``rss_full_materialise_kb``: VmRSS of a subprocess that cold-opens the
  snapshot and runs one join, vs one that loads the same snapshot into
  memory (``mmap=False``), decodes every term and iterates every triple
  (the footprint of a store whose whole dictionary has been touched).
* **Sharded snapshots** — save/open round-trip times for the 4-shard
  layout (shared dictionary file + per-shard columns).

Usage::

    PYTHONPATH=src python benchmarks/record_persist.py --label pr4 --out BENCH_persist.json

``--check`` turns the run into the CI acceptance guard: it fails unless
``cold_open_speedup >= --min-open-speedup`` (default 5.0) and
``first_join_cold_over_warm <= --max-first-join-ratio`` (default 1.5).
``--smoke`` uses a much smaller world for quick sanity runs (the CI
guard runs the full preset — open time is size-independent, so the large
world is the honest one for the speedup claim).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(_ROOT) not in sys.path:
    sys.path.append(str(_ROOT))

from benchmarks.timing import best_of  # noqa: E402
from repro.shard.sharded_store import ShardedTripleStore  # noqa: E402
from repro.sparql.evaluate import QueryEvaluator  # noqa: E402
from repro.sparql.parser import parse_query  # noqa: E402
from repro.store.triplestore import TripleStore  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402


def _three_pattern_join(kb) -> str:
    """A planned 3-pattern star join guaranteed to produce solutions.

    Picks the three heaviest relations that actually co-occur on one
    subject (rather than the global top three, which may describe
    disjoint entity types and join to nothing).
    """
    fact_count = {
        info.iri.value: info.fact_count for info in kb.relations()
    }
    store = kb.store
    best: list = []
    for subject in store.subjects():
        predicates = [
            p for p in store.predicates_of(subject) if p.value in fact_count
        ]
        if len(predicates) >= 3:
            candidate = sorted(
                predicates, key=lambda p: -fact_count[p.value]
            )[:3]
            weight = sum(fact_count[p.value] for p in candidate)
            if not best or weight > best[0]:
                best = [weight, candidate]
    if not best:
        raise RuntimeError("preset world has no 3-relation star subject")
    r0, r1, r2 = (p.value for p in best[1])
    return (
        f"SELECT ?s ?o ?w ?z WHERE {{ ?s <{r0}> ?o . "
        f"?s <{r1}> ?w . ?s <{r2}> ?z }}"
    )


_RSS_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.store.triplestore import TripleStore

store = TripleStore.open({snap!r}, mmap={use_mmap})
if {materialise}:
    # Decode every term and iterate every triple: the footprint of a
    # store whose whole dictionary has been touched.
    for _ in store.dictionary.terms():
        pass
    for _ in store:
        pass
else:
    # Cold path: run the join once so the measurement includes the pages
    # a real first query actually touches.
    list(QueryEvaluator(store).evaluate(parse_query({query!r})))
with open("/proc/self/status", encoding="ascii") as handle:
    for line in handle:
        if line.startswith("VmRSS:"):
            print(line.split()[1])
            break
"""


def _subprocess_rss_kb(snap: Path, query: str, materialise: bool) -> float:
    """VmRSS (kB) of a child that opens the snapshot one way or the other."""
    code = _RSS_SNIPPET.format(
        src=str(_SRC),
        snap=str(snap),
        use_mmap=not materialise,
        materialise=materialise,
        query=query,
    )
    try:
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout.strip()
        return float(output)
    except (subprocess.SubprocessError, ValueError, OSError):
        return 0.0  # /proc not available (non-Linux); metric is best-effort


def run_benchmarks(spec=None, repeats: int = 5) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="bench-persist-"))
    try:
        return _run_benchmarks(tmp, spec, repeats)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_benchmarks(tmp: Path, spec, repeats: int) -> dict:
    world = generate_world(spec if spec is not None else yago_dbpedia_spec())
    kb = world.kb("yago")
    store = kb.store
    triples = list(store)
    query = _three_pattern_join(kb)
    results: dict = {"triples": len(triples)}

    snap = tmp / "world.snap"

    # ------------------------------------------------------------------ #
    # Rebuild vs save vs cold open.
    # ------------------------------------------------------------------ #
    results["rebuild_ms"] = best_of(
        lambda: TripleStore(name="bench").bulk_load(triples), repeats
    )
    results["save_ms"] = best_of(lambda: store.save(snap), repeats)
    results["snapshot_bytes"] = snap.stat().st_size
    results["cold_open_ms"] = best_of(lambda: TripleStore.open(snap), repeats)
    results["cold_open_noverify_ms"] = best_of(
        lambda: TripleStore.open(snap, verify=False), repeats
    )
    results["cold_open_speedup"] = round(
        results["rebuild_ms"] / results["cold_open_ms"], 2
    )

    # ------------------------------------------------------------------ #
    # First planned 3-pattern join: warm store (fresh evaluator, plan
    # cache cold) vs freshly cold-opened store.
    # ------------------------------------------------------------------ #
    parsed = parse_query(query)
    results["join_rows"] = len(list(QueryEvaluator(store).evaluate(parsed)))

    def warm_first_join() -> None:
        list(QueryEvaluator(store).evaluate(parsed))

    # More repeats than the other metrics: the gate below compares two
    # few-millisecond best-of timings as a ratio, so each side gets extra
    # trials to keep page-fault/scheduler noise out of the minimum.
    join_repeats = max(repeats, 9)
    cold_stores = [TripleStore.open(snap) for _ in range(join_repeats)]

    def cold_first_join() -> None:
        list(QueryEvaluator(cold_stores.pop()).evaluate(parsed))

    results["first_join_warm_ms"] = best_of(warm_first_join, join_repeats)
    results["first_join_cold_ms"] = best_of(cold_first_join, join_repeats)
    results["first_join_cold_over_warm"] = round(
        results["first_join_cold_ms"] / results["first_join_warm_ms"], 3
    )

    # ------------------------------------------------------------------ #
    # Resident memory: lazy mmap open vs fully materialised store.
    # ------------------------------------------------------------------ #
    results["rss_cold_open_kb"] = _subprocess_rss_kb(snap, query, materialise=False)
    results["rss_full_materialise_kb"] = _subprocess_rss_kb(
        snap, query, materialise=True
    )
    if results["rss_cold_open_kb"] and results["rss_full_materialise_kb"]:
        results["rss_ratio"] = round(
            results["rss_full_materialise_kb"] / results["rss_cold_open_kb"], 2
        )

    # ------------------------------------------------------------------ #
    # Sharded snapshot round trip (4 shards, shared dictionary file).
    # ------------------------------------------------------------------ #
    sharded = ShardedTripleStore(num_shards=4, name="bench", triples=triples)
    shard_dir = tmp / "sharded"
    results["sharded4_save_ms"] = best_of(lambda: sharded.save(shard_dir), repeats)
    results["sharded4_cold_open_ms"] = best_of(
        lambda: ShardedTripleStore.open(shard_dir), repeats
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny world for quick sanity runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the acceptance thresholds below hold",
    )
    parser.add_argument(
        "--min-open-speedup",
        type=float,
        default=5.0,
        help="required rebuild/cold-open ratio (default 5.0)",
    )
    parser.add_argument(
        "--max-first-join-ratio",
        type=float,
        default=1.5,
        help="allowed cold/warm first-join ratio (default 1.5)",
    )
    args = parser.parse_args()

    spec = None
    if args.smoke:
        spec = yago_dbpedia_spec(families=5, people=60, works=40, places=20, orgs=15)

    results = {
        "benchmark": "benchmarks/record_persist.py",
        "preset": (
            "smoke world" if args.smoke
            else "yago_dbpedia_spec() (paper-scale, largest preset)"
        ),
        "baseline": "columnar bulk_load rebuild on every process start (PR 2/3)",
        "label": args.label,
        "results": run_benchmarks(spec),
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    if args.check:
        measured = results["results"]
        failures = []
        if measured["cold_open_speedup"] < args.min_open_speedup:
            failures.append(
                f"cold_open_speedup {measured['cold_open_speedup']:.2f} "
                f"< required {args.min_open_speedup:g}x"
            )
        if measured["first_join_cold_over_warm"] > args.max_first_join_ratio:
            failures.append(
                f"first_join_cold_over_warm {measured['first_join_cold_over_warm']:.3f} "
                f"> allowed {args.max_first_join_ratio:g}x"
            )
        if failures:
            for failure in failures:
                print(f"ACCEPTANCE FAILURE: {failure}")
            sys.exit(2)
        print(
            f"acceptance check ok (open {measured['cold_open_speedup']:.1f}x >= "
            f"{args.min_open_speedup:g}x, first join "
            f"{measured['first_join_cold_over_warm']:.3f} <= "
            f"{args.max_first_join_ratio:g}x)"
        )


if __name__ == "__main__":
    main()
