"""Differential fuzzing: warm vs mmap-reopened vs sharded-reopened stores.

For hypothesis-generated stores and query workloads, the same data must
answer every query identically (as solution multisets) no matter which
representation serves it:

* the warm in-memory store (planned evaluator — the reference, itself
  cross-checked against the naive nested-loop path elsewhere);
* the store saved to a snapshot and reopened cold via ``mmap``;
* sharded stores at 1, 2 and 8 shards, saved and reopened cold through
  the scatter/gather evaluator.

The workload covers BGP joins, OPTIONAL, UNION, ASK, LIMIT, COUNT /
COUNT DISTINCT and VALUES (with UNDEF rows).  LIMIT pages may differ
*which* rows they pick between representations (iteration order is not
part of the contract), so those assert valid-subset-of-the-full-result
semantics instead of row identity.
"""

import tempfile
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.endpoint.policy import AccessPolicy
from repro.endpoint.simulation import SimulatedSparqlEndpoint
from repro.sparql.parser import parse_query

from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    AskQuery,
    CountExpression,
    GroupGraphPattern,
    OptionalNode,
    ProjectionItem,
    SelectQuery,
    TriplePatternNode,
    UnionNode,
    ValuesNode,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://diffpersist.test/")

SHARD_COUNTS = (1, 2, 8)

# Deliberately tiny vocabulary so random BGPs actually join (mirrors
# test_shard_property.py), plus literals so decoding the reopened
# dictionary's snapshot records sees every term kind.
_iris = st.sampled_from([EX[f"n{index}"] for index in range(6)])
_literals = st.sampled_from(
    [Literal("v0"), Literal("v1", language="en"), Literal(7)]
)
_objects = st.one_of(_iris, _literals)
_variables = st.sampled_from([Variable(name) for name in "abc"])
_subject_terms = st.one_of(_variables, _iris)
_object_terms = st.one_of(_variables, _iris)
_patterns = st.builds(
    TriplePatternNode, _subject_terms, _subject_terms, _object_terms
)
_triples = st.lists(st.builds(Triple, _iris, _iris, _objects), max_size=40)
_values_nodes = st.lists(
    st.tuples(st.one_of(st.none(), _iris), st.one_of(st.none(), _iris)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: ValuesNode(variables=(Variable("a"), Variable("b")), rows=tuple(rows))
)


def _multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


@contextmanager
def _reopened_evaluators(triples):
    """(reference, [evaluator per representation]) over one dataset.

    Every reopened store lives in one fresh temporary directory, removed
    when the ``with`` block ends.
    """
    with tempfile.TemporaryDirectory(prefix="diffpersist-") as name:
        tmp = Path(name)
        warm = TripleStore(triples=triples)
        evaluators = [("warm", QueryEvaluator(warm))]
        warm.save(tmp / "single.snap")
        evaluators.append(
            ("cold-mmap", QueryEvaluator(TripleStore.open(tmp / "single.snap")))
        )
        for count in SHARD_COUNTS:
            sharded = ShardedTripleStore(num_shards=count, triples=triples)
            directory = tmp / f"shards{count}"
            sharded.save(directory)
            evaluators.append(
                (
                    f"cold-shards{count}",
                    ShardedQueryEvaluator(ShardedTripleStore.open(directory)),
                )
            )
        # The same dataset arriving as base + mutation burst must replay
        # (delta chain) and fold (compact) to identical answers.
        half = len(triples) // 2
        chained = TripleStore(triples=triples[:half])
        chained.save(tmp / "chain.snap")
        for triple in triples[half:]:
            chained.add(triple)
        chained.save_delta(tmp / "chain.snap")
        evaluators.append(
            ("delta-replay", QueryEvaluator(TripleStore.open(tmp / "chain.snap")))
        )
        chained.compact(tmp / "chain.snap")
        evaluators.append(
            ("compacted", QueryEvaluator(TripleStore.open(tmp / "chain.snap")))
        )
        sharded_chain = ShardedTripleStore(num_shards=2, triples=iter(triples[:half]))
        chain_dir = tmp / "chain-shards2"
        sharded_chain.save(chain_dir)
        for triple in triples[half:]:
            sharded_chain.add(triple)
        sharded_chain.save_delta(chain_dir)
        evaluators.append(
            (
                "delta-shards2",
                ShardedQueryEvaluator(ShardedTripleStore.open(chain_dir)),
            )
        )
        sharded_chain.compact(chain_dir)
        evaluators.append(
            (
                "compacted-shards2",
                ShardedQueryEvaluator(ShardedTripleStore.open(chain_dir)),
            )
        )
        yield evaluators


def _assert_identical(query, triples):
    with _reopened_evaluators(triples) as evaluators:
        _, reference = evaluators[0]
        expected = _multiset(reference.evaluate(query))
        for label, evaluator in evaluators[1:]:
            assert _multiset(evaluator.evaluate(query)) == expected, label


class TestDifferentialSelect:
    @given(_triples, st.lists(_patterns, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_bgp_join(self, triples, patterns):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(tuple(patterns)),
            select_all=True,
        )
        _assert_identical(query, triples)

    @given(_triples, _patterns, st.lists(_patterns, min_size=1, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_optional(self, triples, required, optionals):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(
                (required, OptionalNode(GroupGraphPattern(tuple(optionals))))
            ),
            select_all=True,
        )
        _assert_identical(query, triples)

    @given(
        _triples,
        st.lists(_patterns, min_size=1, max_size=2),
        st.lists(_patterns, min_size=1, max_size=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_union(self, triples, left, right):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(
                (
                    UnionNode(
                        branches=(
                            GroupGraphPattern(tuple(left)),
                            GroupGraphPattern(tuple(right)),
                        )
                    ),
                )
            ),
            select_all=True,
        )
        _assert_identical(query, triples)

    @given(_triples, _values_nodes, st.lists(_patterns, min_size=1, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_values_with_undef(self, triples, values, patterns):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern((values,) + tuple(patterns)),
            select_all=True,
        )
        _assert_identical(query, triples)


class TestDifferentialAskLimitCount:
    @given(_triples, st.lists(_patterns, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_ask(self, triples, patterns):
        query = AskQuery(where=GroupGraphPattern(tuple(patterns)))
        with _reopened_evaluators(triples) as evaluators:
            _, reference = evaluators[0]
            expected = bool(reference.evaluate(query))
            for label, evaluator in evaluators[1:]:
                assert bool(evaluator.evaluate(query)) == expected, label

    @given(
        _triples,
        st.lists(_patterns, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=20, deadline=None)
    def test_limit_pages_are_valid_subsets(self, triples, patterns, limit):
        where = GroupGraphPattern(tuple(patterns))
        full = SelectQuery(projection=(), where=where, select_all=True)
        paged = SelectQuery(
            projection=(), where=where, select_all=True, limit=limit
        )
        with _reopened_evaluators(triples) as evaluators:
            _, reference = evaluators[0]
            universe = _multiset(reference.evaluate(full))
            expected_size = min(limit, sum(universe.values()))
            for label, evaluator in evaluators[1:]:
                page = _multiset(evaluator.evaluate(paged))
                assert sum(page.values()) == expected_size, label
                for row, count in page.items():
                    assert universe[row] >= count, label

    @given(_triples, st.lists(_patterns, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_count_and_count_distinct(self, triples, patterns):
        projection = (
            ProjectionItem(expression=CountExpression(), alias=Variable("c")),
            ProjectionItem(
                expression=CountExpression(variable=Variable("a"), distinct=True),
                alias=Variable("d"),
            ),
        )
        query = SelectQuery(
            projection=projection,
            where=GroupGraphPattern(tuple(patterns)),
        )
        _assert_identical(query, triples)

class TestDifferentialHandover:
    """Mid-wave handover: a query racing a live refresh must answer with
    exactly the pre-mutation or the post-mutation dataset — never a
    blend — at every shard count and on both scatter backends."""

    def _dataset(self, count=90):
        return [
            Triple(EX[f"h{i:03d}"], EX.p, EX[f"o{i % 5}"]) for i in range(count)
        ]

    def _extras(self, count=30):
        return [Triple(EX[f"hx{i}"], EX.p, EX[f"o{i % 3}"]) for i in range(count)]

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_wave_across_refresh_sees_one_generation(
        self, tmp_path, num_shards, backend
    ):
        base, extras = self._dataset(), self._extras()
        select = "SELECT ?s ?o WHERE { ?s <http://diffpersist.test/p> ?o }"
        expected_before = _multiset(
            QueryEvaluator(TripleStore(triples=base)).evaluate(
                parse_query(select)
            )
        )
        expected_after = _multiset(
            QueryEvaluator(TripleStore(triples=base + extras)).evaluate(
                parse_query(select)
            )
        )
        store = ShardedTripleStore(num_shards=num_shards)
        store.bulk_load(base)
        with SimulatedSparqlEndpoint(
            store,
            policy=AccessPolicy(max_queries=None, max_result_rows=None),
            backend=backend if backend == "process" else None,
            snapshot_dir=(tmp_path / "snap") if backend == "process" else None,
            pool_size=2 if backend == "process" else None,
        ) as endpoint:
            answers = []
            errors = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        answers.append(_multiset(endpoint.query(select)))
                    except Exception as error:  # noqa: BLE001 - asserted
                        errors.append(error)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                endpoint.refresh(
                    mutate=lambda s: [s.add(t) for t in extras],
                    rebalance=num_shards > 1,
                )
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert errors == []
            for answer in answers:
                assert answer in (expected_before, expected_after)
            assert (
                _multiset(endpoint.query(select)) == expected_after
            )
