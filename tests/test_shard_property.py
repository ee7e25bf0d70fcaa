"""Property-based cross-check: sharded scatter/gather vs single-store evaluation.

For random stores and random basic graph patterns, the sharded evaluator
(at 1, 2 and 8 shards) must return solution multisets identical to both
the single-store *planned* evaluator and the *naive nested-loop*
reference — including ASK, LIMIT, COUNT / COUNT DISTINCT, and VALUES
rows with UNDEF entries.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard import ShardedTripleStore
from repro.sparql.ast import (
    CountExpression,
    GroupGraphPattern,
    ProjectionItem,
    SelectQuery,
    AskQuery,
    TriplePatternNode,
    ValuesNode,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore
from tests.reference_engine import naive_evaluator

EX = Namespace("http://shardprop.test/")

SHARD_COUNTS = (1, 2, 8)

# A deliberately tiny vocabulary so random BGPs actually join: few IRIs,
# few variables, dense random stores (mirrors test_property_based.py).
_iris = st.sampled_from([EX[f"n{index}"] for index in range(6)])
_variables = st.sampled_from([Variable(name) for name in "abc"])
_pattern_terms = st.one_of(_variables, _iris)
_patterns = st.builds(TriplePatternNode, _pattern_terms, _pattern_terms, _pattern_terms)
_triples = st.lists(st.builds(Triple, _iris, _iris, _iris), max_size=50)
# VALUES rows may contain None (UNDEF): some solutions leave a variable
# unbound, which both the planner and the shard router must respect.
_values_nodes = st.lists(
    st.tuples(st.one_of(st.none(), _iris), st.one_of(st.none(), _iris)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: ValuesNode(variables=(Variable("a"), Variable("b")), rows=tuple(rows))
)


def _multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


def _evaluators(triples):
    """Single-store planned + naive, and one sharded evaluator per count."""
    single = TripleStore(triples=triples)
    references = (
        QueryEvaluator(single),
        naive_evaluator(single),
    )
    sharded = tuple(
        ShardedQueryEvaluator(ShardedTripleStore(num_shards=count, triples=triples))
        for count in SHARD_COUNTS
    )
    return references, sharded


def _assert_all_agree(query, triples):
    (planned, naive), sharded = _evaluators(triples)
    expected = _multiset(planned.evaluate(query))
    assert expected == _multiset(naive.evaluate(query))
    for evaluator in sharded:
        assert _multiset(evaluator.evaluate(query)) == expected, (
            f"shards={evaluator.store.num_shards}"
        )


class TestShardedSelectEquivalence:
    @given(_triples, st.lists(_patterns, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_select_all_matches_both_references(self, triples, patterns):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(tuple(patterns)),
            select_all=True,
        )
        _assert_all_agree(query, triples)

    @given(_triples, _values_nodes, st.lists(_patterns, min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_values_with_undef_matches(self, triples, values, patterns):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern((values,) + tuple(patterns)),
            select_all=True,
        )
        _assert_all_agree(query, triples)

    @given(_triples, st.lists(_patterns, min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_distinct_matches(self, triples, patterns):
        query = SelectQuery(
            projection=(),
            where=GroupGraphPattern(tuple(patterns)),
            select_all=True,
            distinct=True,
        )
        _assert_all_agree(query, triples)


class TestShardedAskLimitCount:
    @given(_triples, st.lists(_patterns, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_ask_matches(self, triples, patterns):
        query = AskQuery(where=GroupGraphPattern(tuple(patterns)))
        (planned, naive), sharded = _evaluators(triples)
        expected = bool(planned.evaluate(query))
        assert expected == bool(naive.evaluate(query))
        for evaluator in sharded:
            assert bool(evaluator.evaluate(query)) == expected

    @given(_triples, st.lists(_patterns, min_size=1, max_size=3),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_limit_page_is_a_valid_subset(self, triples, patterns, limit):
        where = GroupGraphPattern(tuple(patterns))
        full = SelectQuery(projection=(), where=where, select_all=True)
        paged = SelectQuery(projection=(), where=where, select_all=True, limit=limit)
        (planned, _), sharded = _evaluators(triples)
        universe = _multiset(planned.evaluate(full))
        expected_size = min(limit, sum(universe.values()))
        for evaluator in sharded:
            page = _multiset(evaluator.evaluate(paged))
            assert sum(page.values()) == expected_size
            # Every returned row (with its multiplicity) exists globally.
            for row, count in page.items():
                assert universe[row] >= count

    @given(_triples, st.lists(_patterns, min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_count_and_count_distinct_match(self, triples, patterns):
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
        _assert_all_agree(query, triples)
