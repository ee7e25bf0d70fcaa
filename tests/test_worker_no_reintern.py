"""The parent→worker snapshot handoff never re-interns anything.

The whole point of serving workers from per-shard snapshot files is that
the shared dictionary crosses the process boundary as *bytes on disk*,
not as pickled objects: worker-side IDs are therefore the parent's IDs.
These property tests pin that contract:

* every ID a worker streams back is byte-identical to the parent
  dictionary's — decoding it in the parent and re-encoding the term
  reproduces the exact record the ID maps to, and looking the term up
  again yields the same ID;
* result multisets of worker evaluation equal in-process evaluation
  *as raw ID bindings* (not merely as decoded terms);
* workers never promote their lazy dictionary and never write to a
  shard index (every shard stays frozen) — the read path alone must
  suffice;
* a cold parent (reopened from the same snapshot) stays lazy too: a
  full process-backend query round-trip promotes nothing on either side.
"""

import multiprocessing
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    GroupGraphPattern,
    OptionalNode,
    TriplePatternNode,
)
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.dictionary import encode_term_record

EX = Namespace("http://nointern.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

# Tiny vocabulary so random patterns join; literals exercise every term
# kind through the record encoding.
_iris = st.sampled_from([EX[f"n{index}"] for index in range(6)])
_objects = st.one_of(
    _iris,
    st.sampled_from([Literal("v0"), Literal("v1", language="en"), Literal(7)]),
)
_variables = st.sampled_from([Variable(name) for name in "ab"])
_triples = st.lists(
    st.builds(Triple, _iris, _iris, _objects), min_size=1, max_size=30
)
# Star-shaped groups (co-partitioned on ?s) so the scatter path is taken.
_star_patterns = st.lists(
    st.builds(
        TriplePatternNode,
        st.just(Variable("s")),
        st.one_of(_variables, _iris),
        st.one_of(_variables, _iris),
    ),
    min_size=1,
    max_size=3,
)


def _id_multiset(bindings) -> Counter:
    return Counter(frozenset(binding.items()) for binding in bindings)


class TestNoReintern:
    @given(_triples, _star_patterns, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_worker_ids_are_parent_ids(self, triples, patterns, optional_tail):
        elements = tuple(patterns)
        if optional_tail and len(elements) > 1:
            elements = elements[:-1] + (
                OptionalNode(GroupGraphPattern((elements[-1],))),
            )
        group = GroupGraphPattern(elements)

        store = ShardedTripleStore(num_shards=2, triples=triples)
        directory = Path(tempfile.mkdtemp(prefix="nointern-")) / "snap"
        with store.serve(directory, start_method=START_METHOD) as executor:
            worker_rows = list(
                executor.run_group(range(store.num_shards), group)
            )
            local_rows = [
                binding
                for shard in store.shards
                for binding in QueryEvaluator(shard)._evaluate_group(
                    group, IdBinding.EMPTY
                )
            ]
            # Identity in ID space, not merely after decoding.
            assert _id_multiset(worker_rows) == _id_multiset(local_rows)

            dictionary = store.dictionary
            for row in worker_rows:
                for _, value in row.items():
                    assert type(value) is int
                    term = dictionary.decode(value)
                    # Byte-identity: the record the parent would write
                    # for this term is the record the ID resolves to.
                    assert dictionary.id_for(term) == value
                    encode_term_record(term)  # must be encodable verbatim

            # The workload above crossed the process boundary as IDs
            # only: no worker interned anything, no shard index was written.
            for info in executor.ping_all():
                assert info["promoted"] is False
                assert all(info["frozen"].values())

    @given(_triples)
    @settings(max_examples=8, deadline=None)
    def test_cold_parent_round_trip_promotes_nothing(self, triples):
        store = ShardedTripleStore(num_shards=2, triples=triples)
        directory = Path(tempfile.mkdtemp(prefix="nointern-cold-")) / "snap"
        store.save(directory)
        cold = ShardedTripleStore.open(directory)
        with cold.serve(directory, start_method=START_METHOD) as executor:
            evaluator = ShardedQueryEvaluator(
                cold, backend="process", executor=executor
            )
            result = evaluator.evaluate(
                "SELECT ?s ?p ?o WHERE { ?s ?p ?o . "
                "?s <http://nointern.test/n0> ?x }"
            )
            # Results decode through the parent's lazy dictionary
            # without promoting it; workers stayed lazy as well.
            assert not cold.dictionary.is_promoted
            for shard in cold.shards:
                assert shard.is_frozen
            for info in executor.ping_all():
                assert info["promoted"] is False
                assert all(info["frozen"].values())
            assert result is not None
