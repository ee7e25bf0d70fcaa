"""Unit tests for the vectorized join kernels.

The kernels must (a) actually engage on every plan, (b) produce the same
solution multisets as the per-row reference operators on every shape,
including repeated in-pattern variables and groups that arrive with
bindings, and (c) preserve the streaming contract so ASK and LIMIT
still short-circuit.
"""

from collections import Counter

import pytest

from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.sparql import kernels
from repro.sparql.ast import TriplePatternNode
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.plan import plan_bgp
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.shard.sharded_store import ShardedTripleStore
from repro.store.triplestore import TripleStore
from tests.reference_engine import per_row_evaluator

EX = Namespace("http://vec.test/")


def chain_store(size: int = 200) -> TripleStore:
    """A store where p0/p1/p2 chain into multi-pattern joins."""
    triples = []
    for index in range(size):
        a, b, c = EX[f"e{index % 40}"], EX[f"e{(index * 7) % 40}"], EX[f"e{(index * 13) % 40}"]
        triples.append(Triple(a, EX.p0, b))
        triples.append(Triple(b, EX.p1, c))
        if index % 3 == 0:
            triples.append(Triple(c, EX.p2, a))
    return TripleStore(triples=triples)


def _multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


QUERIES = [
    # 3-pattern chain: SCAN + MERGE/HASH territory.
    "SELECT * WHERE { ?a <http://vec.test/p0> ?b . ?b <http://vec.test/p1> ?c . "
    "?c <http://vec.test/p2> ?d }",
    # Star join on a shared subject.
    "SELECT * WHERE { ?a <http://vec.test/p0> ?b . ?a <http://vec.test/p2> ?c }",
    # Full scan pattern (0 constants) joined against a selective one.
    "SELECT * WHERE { ?s ?p ?o . ?s <http://vec.test/p2> ?x }",
    # Constant subject feeding the chain.
    "SELECT * WHERE { <http://vec.test/e0> <http://vec.test/p0> ?b . "
    "?b <http://vec.test/p1> ?c }",
    # Repeated variable inside one pattern: an equality mask.
    "SELECT * WHERE { ?a <http://vec.test/p0> ?a . ?a <http://vec.test/p1> ?c }",
    # Unknown constant: provably empty either way.
    "SELECT * WHERE { ?a <http://vec.test/nope> ?b . ?b <http://vec.test/p1> ?c }",
    # OPTIONAL / UNION around vectorizable groups.
    "SELECT * WHERE { ?a <http://vec.test/p0> ?b OPTIONAL { ?b <http://vec.test/p1> ?c } }",
    "SELECT * WHERE { { ?a <http://vec.test/p0> ?b } UNION { ?a <http://vec.test/p2> ?b } }",
]


class TestVectorizedAgainstScalar:
    @pytest.mark.parametrize("query_text", QUERIES)
    def test_warm_store(self, query_text):
        store = chain_store()
        query = parse_query(query_text)
        vectorized = _multiset(QueryEvaluator(store).evaluate(query))
        scalar = _multiset(per_row_evaluator(store).evaluate(query))
        assert vectorized == scalar

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_cold_mmap_store(self, query_text, tmp_path):
        store = chain_store()
        store.save(tmp_path / "store.snap")
        cold = TripleStore.open(tmp_path / "store.snap")
        query = parse_query(query_text)
        vectorized = _multiset(QueryEvaluator(cold).evaluate(query))
        scalar = _multiset(per_row_evaluator(store).evaluate(query))
        assert vectorized == scalar

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("query_text", QUERIES)
    def test_sharded_store(self, query_text, shards):
        triples = list(chain_store())
        sharded = ShardedTripleStore(num_shards=shards, triples=triples)
        reference = TripleStore(triples=triples)
        query = parse_query(query_text)
        vectorized = _multiset(ShardedQueryEvaluator(sharded).evaluate(query))
        scalar = _multiset(
            per_row_evaluator(reference).evaluate(query)
        )
        assert vectorized == scalar


class TestEngagementAndFallback:
    def test_kernels_engage_on_chain_join(self):
        store = chain_store()
        evaluator = QueryEvaluator(store)
        patterns = [
            TriplePatternNode(Variable("a"), EX.p0, Variable("b")),
            TriplePatternNode(Variable("b"), EX.p1, Variable("c")),
        ]
        plan = plan_bgp(store, patterns)
        stream = kernels.execute(evaluator, plan, [IdBinding.EMPTY])
        assert sum(1 for _ in stream) > 0

    def test_kernels_engage_by_default(self, monkeypatch):
        # REPRO_NO_NUMPY is retired: setting it no longer turns kernels off.
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        store = chain_store()
        query = parse_query(QUERIES[0])
        scalar = _multiset(per_row_evaluator(store).evaluate(query))
        assert _multiset(QueryEvaluator(store).evaluate(query)) == scalar

    def test_plan_records_build_estimates(self):
        store = chain_store()
        patterns = [
            TriplePatternNode(Variable("a"), EX.p0, Variable("b")),
            TriplePatternNode(Variable("b"), EX.p1, Variable("c")),
        ]
        plan = plan_bgp(store, patterns)
        assert all(step.build_estimate >= 0.0 for step in plan.steps)
        assert any(step.build_estimate > 0.0 for step in plan.steps)


class TestStreamingShortCircuit:
    def test_ask_short_circuits(self):
        store = chain_store(2000)
        query = parse_query(
            "ASK { ?a <http://vec.test/p0> ?b . ?b <http://vec.test/p1> ?c }"
        )
        assert bool(QueryEvaluator(store).evaluate(query))
        assert bool(per_row_evaluator(store).evaluate(query))

    def test_limit_pages_are_subsets(self):
        store = chain_store(2000)
        full = parse_query(
            "SELECT * WHERE { ?a <http://vec.test/p0> ?b . ?b <http://vec.test/p1> ?c }"
        )
        paged = parse_query(
            "SELECT * WHERE { ?a <http://vec.test/p0> ?b . ?b <http://vec.test/p1> ?c } LIMIT 5"
        )
        universe = _multiset(per_row_evaluator(store).evaluate(full))
        page = _multiset(QueryEvaluator(store).evaluate(paged))
        assert sum(page.values()) == min(5, sum(universe.values()))
        for row, count in page.items():
            assert universe[row] >= count
