"""Record scale benchmark numbers (streamed worlds + vectorized joins).

For each world size of the scale preset family (13.7k -> 10M triples),
this measures the PR's two hot paths end to end:

* **Streamed build** — ``build_s`` / ``build_rate_tps``: the streaming
  ID-column generation path (:func:`generate_scale_world` through
  ``TripleStore.from_id_columns``), which never materialises per-fact
  ``Triple`` objects.  ``peak_rss_kb`` is ``ru_maxrss`` after the build;
  it is a *process-lifetime high-water mark*, so sizes are always run in
  ascending order and each value bounds the memory needed up to and
  including that size.
* **World cache** — the world is obtained through
  :func:`repro.synthetic.cache.load_or_generate`; ``cache_hit_first``
  records whether this run found an existing entry and
  ``cache_hit_second`` / ``cache_open_s`` time the immediate second
  lookup, which must hit (reopening the snapshot instead of
  regenerating).
* **Vectorized joins** — ``join3_vec_ms`` vs ``join3_scalar_ms``: a
  3-pattern chain join over mid-tail predicates, evaluated with the
  block kernels and with the per-row reference operators the tests keep
  (``tests/reference_engine.py``); ``join3_speedup`` is the headline
  ratio (the acceptance gate requires >= 3x on the 1M preset).

Usage::

    PYTHONPATH=src python benchmarks/record_scale.py --label pr6 \
        --cache-root /tmp/world-cache --out BENCH_scale.json

``--check COMMITTED.json`` turns the run into a CI regression guard over
the sizes actually run (CI uses ``--sizes 100k``): ``*_tps`` metrics
must not fall below the committed numbers by more than
``--max-regression``, and ``*_ms`` metrics must not exceed them by more
than the same factor.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(_ROOT) not in sys.path:
    sys.path.append(str(_ROOT))

from benchmarks.timing import best_of  # noqa: E402
from repro.sparql.evaluate import QueryEvaluator  # noqa: E402
from repro.sparql.parser import parse_query  # noqa: E402
from repro.synthetic.cache import load_or_generate  # noqa: E402
from repro.synthetic.stream import SCALE_PRESETS, scale_world_spec  # noqa: E402
from tests.reference_engine import per_row_evaluator  # noqa: E402

#: Mid-tail predicates of the skewed family: selective enough that the
#: 3-pattern chain stays tractable for the per-row reference at 10M.
JOIN_PREDICATES = ("p4", "p5", "p6")


def _join_query(spec):
    namespace = spec.namespace
    p1, p2, p3 = (namespace.term(name).value for name in JOIN_PREDICATES)
    return parse_query(
        f"SELECT ?a ?b ?c ?d WHERE {{ ?a <{p1}> ?b . "
        f"?b <{p2}> ?c . ?c <{p3}> ?d }}"
    )


def _repeats_for(triples: int) -> int:
    if triples <= 200_000:
        return 5
    if triples <= 2_000_000:
        return 3
    return 1


def bench_size(size_key: str, cache_root, refresh: bool) -> dict:
    spec = scale_world_spec(size_key)
    first = load_or_generate(spec, root=cache_root, refresh=refresh)
    started = time.perf_counter()
    second = load_or_generate(spec, root=cache_root)
    cache_open_s = time.perf_counter() - started
    world = second.world
    store = world.store

    build_seconds = first.world.build_seconds
    metrics = {
        "triples": world.triples,
        "terms": len(world.dictionary),
        "build_s": round(build_seconds, 4),
        "build_rate_tps": round(world.triples / build_seconds, 1) if build_seconds else None,
        "cache_hit_first": first.cache_hit,
        "cache_hit_second": second.cache_hit,
        "cache_open_s": round(cache_open_s, 4),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }

    query = _join_query(spec)
    vectorized = QueryEvaluator(store)
    scalar = per_row_evaluator(store)
    rows = len(vectorized.evaluate(query))
    assert len(scalar.evaluate(query)) == rows, "vectorized/scalar row-count mismatch"
    repeats = _repeats_for(world.triples)
    vec_ms = best_of(lambda: vectorized.evaluate(query), repeats)
    scalar_ms = best_of(lambda: scalar.evaluate(query), repeats)
    metrics.update(
        {
            "join3_rows": rows,
            "join3_vec_ms": round(vec_ms, 3),
            "join3_scalar_ms": round(scalar_ms, 3),
            "join3_speedup": round(scalar_ms / vec_ms, 2) if vec_ms else None,
        }
    )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="dev")
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument(
        "--sizes",
        default="13k,100k,1m,10m",
        help="comma-separated preset names (subset of %s)" % ",".join(SCALE_PRESETS),
    )
    parser.add_argument(
        "--cache-root",
        default=None,
        help="world cache directory (default: REPRO_WORLD_CACHE / ~/.cache/repro-worlds)",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="force regeneration even when the cache holds the world",
    )
    parser.add_argument(
        "--check",
        metavar="COMMITTED",
        default=None,
        help="committed BENCH_scale.json to guard against regressions",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=3.0,
        help="allowed slowdown/throughput-loss factor for --check (default 3.0)",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=0.5,
        help="absolute slack in ms added to every *_ms threshold",
    )
    args = parser.parse_args()

    keys = [key.strip().lower() for key in args.sizes.split(",") if key.strip()]
    for key in keys:
        if key not in SCALE_PRESETS:
            parser.error(f"unknown size {key!r} (known: {', '.join(SCALE_PRESETS)})")
    # Ascending order keeps peak_rss_kb meaningful (see module docstring).
    keys.sort(key=lambda key: SCALE_PRESETS[key])

    cache_root = Path(args.cache_root) if args.cache_root else None
    sizes = {}
    for key in keys:
        sizes[key] = bench_size(key, cache_root, args.refresh)
        print(f"{key}: {json.dumps(sizes[key])}")

    results = {
        "benchmark": "benchmarks/record_scale.py",
        "preset": "scale_world_spec family (streamed ID-column worlds)",
        "join_predicates": list(JOIN_PREDICATES),
        "label": args.label,
        "sizes": sizes,
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    if args.check:
        committed = json.loads(Path(args.check).read_text(encoding="utf-8"))
        failures = []
        checked = 0
        for key in keys:
            reference = committed.get("sizes", {}).get(key, {})
            measured_size = sizes[key]
            for metric, reference_value in reference.items():
                measured = measured_size.get(metric)
                if not isinstance(reference_value, (int, float)) or not isinstance(
                    measured, (int, float)
                ):
                    continue
                if metric.endswith("_ms"):
                    checked += 1
                    limit = reference_value * args.max_regression + args.noise_floor
                    if measured > limit:
                        failures.append((key, metric, reference_value, measured, "slower"))
                elif metric.endswith("_tps"):
                    checked += 1
                    limit = reference_value / args.max_regression
                    if measured < limit:
                        failures.append((key, metric, reference_value, measured, "lower"))
        for key, metric, reference_value, measured, direction in failures:
            print(
                f"REGRESSION {key}/{metric}: {measured:.3f} is {direction} than "
                f"{args.max_regression:g}x headroom on committed {reference_value:.3f}"
            )
        if failures:
            sys.exit(2)
        print(f"regression check ok ({checked} metrics, {args.max_regression:g}x headroom)")


if __name__ == "__main__":
    main()
