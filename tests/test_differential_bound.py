"""Differential fuzzing: groups that arrive with bindings, kernels vs per-row.

The block kernels run every planned group, including the ones that
arrive with bindings: OPTIONAL, UNION and subgroup re-entry, FILTER
EXISTS evaluated per row (under ORDER BY or an aggregate), VALUES with
UNDEF or terms the dictionary never saw, and shipped-join anchors seeded
with the broadcast keys.  The incoming solutions become the kernels'
seed rows, so every row must come out exactly where the per-row
reference operators (:mod:`tests.reference_engine`) put it: the tests
compare *ordered* row lists, not multisets.  Repeated-variable patterns
and joins on two variables, which the kernels used to leave to the
per-row operators, are drawn throughout.

Shipped joins run on the thread backend and on worker processes at two
shards; the per-row reference is the thread backend switched to the
reference operators.
"""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql import kernels
from repro.sparql.ast import (
    CountExpression,
    ExistsExpression,
    FilterNode,
    GroupGraphPattern,
    OptionalNode,
    OrderCondition,
    ProjectionItem,
    SelectQuery,
    TriplePatternNode,
    UnionNode,
    ValuesNode,
    VariableExpression,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore
from tests.reference_engine import per_row, per_row_evaluator

EX = Namespace("http://diffbound.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

A, B, C = (Variable(name) for name in "abc")

# A tiny vocabulary so random patterns join, repeat variables (?a ?p ?a)
# and share two variables between patterns.
_iris = st.sampled_from([EX[f"n{index}"] for index in range(5)])
_objects = st.one_of(_iris, st.sampled_from([Literal("v"), Literal(3)]))
_variables = st.sampled_from([A, B, C])
_terms = st.one_of(_variables, _variables, _iris)
_patterns = st.builds(TriplePatternNode, _terms, _terms, _terms)
_pattern_lists = st.lists(_patterns, min_size=1, max_size=3)
_triples = st.lists(st.builds(Triple, _iris, _iris, _objects), max_size=30)
# VALUES cells: a stored IRI, UNDEF, or an IRI no triple mentions.
_cells = st.one_of(_iris, st.none(), st.just(EX.absent))
_values_nodes = st.lists(st.tuples(_cells, _cells), min_size=1, max_size=4).map(
    lambda rows: ValuesNode(variables=(A, B), rows=tuple(rows))
)


def _group(patterns) -> GroupGraphPattern:
    return GroupGraphPattern(tuple(patterns))


def _select(*elements, **modifiers) -> SelectQuery:
    return SelectQuery(
        projection=(), where=_group(elements), select_all=True, **modifiers
    )


def _assert_same_rows(store, queries):
    engine, reference = QueryEvaluator(store), per_row_evaluator(store)
    for family, query in queries:
        expected = reference.evaluate(query)
        actual = engine.evaluate(query)
        assert actual.variables == expected.variables, family
        assert actual.rows == expected.rows, family


class TestBoundGroups:
    @given(
        triples=_triples,
        outer=_pattern_lists,
        inner=_pattern_lists,
        other=_pattern_lists,
        values=_values_nodes,
        negated=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_row_order(self, triples, outer, inner, other, values, negated):
        exists = FilterNode(ExistsExpression(_group(inner), negated))
        by_a = (OrderCondition(VariableExpression(A)),)
        queries = [
            ("bgp", _select(*outer)),
            ("optional", _select(*outer, OptionalNode(_group(inner)))),
            (
                "union",
                _select(*outer, UnionNode(branches=(_group(inner), _group(other)))),
            ),
            ("subgroup", _select(*outer, _group(inner))),
            ("optional-in-union", _select(
                UnionNode(branches=(
                    _group(outer), _group((*other, OptionalNode(_group(inner)))),
                )),
            )),
            ("exists-ordered", _select(*outer, exists, order_by=by_a)),
            (
                "exists-aggregate",
                SelectQuery(
                    projection=(
                        ProjectionItem(variable=A),
                        ProjectionItem(expression=CountExpression(), alias=Variable("n")),
                    ),
                    where=_group((*outer, exists)),
                    group_by=(A,),
                ),
            ),
            ("values", _select(values, *outer)),
            ("values-optional", _select(values, *outer, OptionalNode(_group(inner)))),
            ("values-ordered", _select(values, *outer, order_by=by_a)),
        ]
        store = TripleStore(triples=triples)
        _assert_same_rows(store, queries)
        with pytest.MonkeyPatch.context() as patch:
            # Tiny blocks: seed runs, lookups and crosses all cut blocks.
            patch.setattr(kernels, "BLOCK_ROWS", 2)
            _assert_same_rows(store, queries)

    @pytest.mark.parametrize(
        "where",
        [
            # repeated variable, alone and joined
            "?a <{p}> ?a",
            "?a ?b ?a . ?a <{q}> ?c",
            # two-variable joins: hash on two keys, nested on two keys
            "?a <{p}> ?b . ?b <{q}> ?a",
            "?a ?b ?c . ?c ?b ?a",
            "VALUES ?a {{ <{n1}> <{n2}> }} ?a <{p}> ?b . ?a <{q}> ?b",
            # constant-free pattern probed on its predicate
            "?x <{p}> ?b . ?a ?b ?c",
        ],
    )
    def test_engagement_moves_only_the_vectorized_counter(self, where):
        triples = [
            Triple(EX[f"n{i % 4}"], EX[f"n{(i * 3) % 5}"], EX[f"n{(i * 7) % 4}"])
            for i in range(40)
        ]
        triples += [Triple(EX.n1, EX.p, EX.n1), Triple(EX.n2, EX.q, EX.n2)]
        store = TripleStore(triples=triples)
        text = "SELECT * WHERE { " + where.format(
            p=EX.p.value, q=EX.q.value, n1=EX.n1.value, n2=EX.n2.value
        ) + " }"
        registry = obs_metrics.registry()
        for query in (text, text + " ORDER BY ?a"):
            before = registry.counters_with_prefix("kernel.")
            rows = QueryEvaluator(store).evaluate(query).rows
            after = registry.counters_with_prefix("kernel.")
            moved = {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)
            }
            assert moved == {"vectorized": 1}, query
            assert rows == per_row_evaluator(store).evaluate(query).rows, query


# --------------------------------------------------------------------- #
# Seeded ship anchors
# --------------------------------------------------------------------- #
ENTITIES = 40


def _world():
    """``hN p1 eM`` hub links over a heavy ``eM p2 oK`` anchor, so a chain
    from one hub seeds the anchor with a few keys."""
    triples = []
    for index in range(ENTITIES):
        entity = EX[f"e{index}"]
        triples.append(Triple(entity, EX.p2, EX[f"o{index % 3}"]))
        triples.append(Triple(entity, EX.p2, EX[f"o{index % 5}"]))
        triples.append(Triple(entity, EX.p3, EX[f"e{(index * 7) % ENTITIES}"]))
        triples.append(Triple(EX[f"h{index % 8}"], EX.p1, entity))
    return triples


@pytest.fixture(scope="module")
def ship_setups(tmp_path_factory):
    """``(label, evaluator)`` for the kernels on the thread and process
    backends, and the thread-backend per-row reference, at two shards."""
    store = ShardedTripleStore(num_shards=2, triples=_world())
    with store.serve(
        tmp_path_factory.mktemp("diffbound"), start_method=START_METHOD
    ) as executor:
        yield (
            per_row(ShardedQueryEvaluator(store)),
            [
                ("thread", ShardedQueryEvaluator(store)),
                (
                    "process",
                    ShardedQueryEvaluator(store, backend="process", executor=executor),
                ),
            ],
        )


SHIP_FORMS = {
    "chain": "SELECT ?m ?o WHERE {{ <{h}> <{p1}> ?m . ?m <{p2}> ?o }}",
    "chain-star": (
        "SELECT * WHERE {{ <{h}> <{p1}> ?m . ?m <{p2}> ?o . ?m <{p3}> ?x }}"
    ),
    "chain-ordered": (
        "SELECT ?m ?o WHERE {{ <{h}> <{p1}> ?m . ?m <{p2}> ?o }} ORDER BY ?o"
    ),
    "optional-chain": (
        "SELECT * WHERE {{ ?x <{p3}> <{e}> OPTIONAL {{ <{h}> <{p1}> ?m . ?m <{p2}> ?o }} }}"
    ),
}


class TestSeededShipAnchors:
    @given(
        form=st.sampled_from(sorted(SHIP_FORMS)),
        hub=st.integers(min_value=0, max_value=8),
        entity=st.integers(min_value=0, max_value=ENTITIES - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ship_rows_match_per_row_order(self, ship_setups, form, hub, entity):
        reference, evaluators = ship_setups
        query = SHIP_FORMS[form].format(
            h=EX[f"h{hub}"].value,
            e=EX[f"e{entity}"].value,
            p1=EX.p1.value,
            p2=EX.p2.value,
            p3=EX.p3.value,
        )
        expected = reference.evaluate(query).rows
        for label, evaluator in evaluators:
            assert evaluator.evaluate(query).rows == expected, (label, query)

    def test_chain_anchor_is_seeded(self, ship_setups):
        _, evaluators = ship_setups
        query = SHIP_FORMS["chain"].format(
            h=EX.h1.value, p1=EX.p1.value, p2=EX.p2.value
        )
        for label, evaluator in evaluators:
            plan = evaluator.explain(query)
            assert plan.mode == "ship", label
            assert any(keys for _, keys in plan.anchors), (label, plan.describe())
