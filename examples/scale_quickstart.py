"""Scale quickstart: stream a 1M-triple world, cache it, query it.

The script walks the full large-world loop this repo's benchmarks use:

* **generate** — :func:`generate_scale_world` streams dictionary ID
  columns straight into the columnar bulk loader; no per-fact ``Triple``
  objects exist at any point, so a million facts build in a second or
  two and the store arrives frozen (CSR indexes with no pending writes).
* **cache** — :func:`load_or_generate` keys an on-disk snapshot on the
  spec hash; the second lookup reopens it via mmap instead of
  regenerating (relocate or disable with ``REPRO_WORLD_CACHE``).
* **query** — a 3-pattern chain join on the vectorized block kernels,
  printing its row count and latency.  ``benchmarks/record_scale.py``
  measures the same join against the per-row reference operators the
  tests keep.

Run with::

    PYTHONPATH=src python examples/scale_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.synthetic.cache import load_or_generate
from repro.synthetic.stream import scale_world_spec


def main() -> None:
    cache = Path(tempfile.mkdtemp(prefix="scale-quickstart-"))
    spec = scale_world_spec("1m")
    print(f"spec: {spec.name} — {spec.triples:,} draws over "
          f"{spec.entities:,} entities / {spec.predicates} predicates")

    # ---------------------------------------------------------------- #
    # Generate (cache miss): streamed ID columns, no Triple objects.
    # ---------------------------------------------------------------- #
    first = load_or_generate(spec, root=cache)
    world = first.world
    print(f"generated: {world.describe()}")
    print(f"cache entry: {first.path.name} (hit={first.cache_hit})")

    # ---------------------------------------------------------------- #
    # Reload (cache hit): snapshot reopened via mmap, nothing rebuilt.
    # ---------------------------------------------------------------- #
    start = time.perf_counter()
    second = load_or_generate(spec, root=cache)
    reopen_ms = (time.perf_counter() - start) * 1000
    print(f"second lookup: hit={second.cache_hit} in {reopen_ms:.1f} ms "
          f"(vs {world.build_seconds:.2f} s to generate)")

    # ---------------------------------------------------------------- #
    # Query: a 3-pattern chain join on the block kernels.
    # ---------------------------------------------------------------- #
    namespace = spec.namespace
    p4, p5, p6 = (namespace.term(name).value for name in ("p4", "p5", "p6"))
    query = parse_query(
        f"SELECT ?a ?b ?c ?d WHERE {{ ?a <{p4}> ?b . "
        f"?b <{p5}> ?c . ?c <{p6}> ?d }}"
    )
    store = second.store

    start = time.perf_counter()
    rows = len(QueryEvaluator(store).evaluate(query))
    vectorized_ms = (time.perf_counter() - start) * 1000
    print(f"3-pattern chain join: {rows} rows in {vectorized_ms:.1f} ms")


if __name__ == "__main__":
    main()
