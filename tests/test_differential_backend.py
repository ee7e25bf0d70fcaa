"""Differential fuzzing: thread-backend vs process-backend scatter.

Extends the :mod:`tests.test_differential_persist` harness to the
process-parallel executor: for hypothesis-generated datasets, the same
store must answer every query identically (as solution multisets) no
matter which scatter backend serves it —

* the warm planned evaluator over a single store (the reference);
* ``ShardedQueryEvaluator(store)`` — the in-process thread backend —
  at 1, 2 and 8 shards;
* ``ShardedQueryEvaluator(store, backend="process", executor=...)`` —
  worker processes over the per-shard snapshots — at 1, 2 and 8 shards.

The workload is the full battery: BGP joins, OPTIONAL, UNION, ASK,
LIMIT, COUNT / COUNT DISTINCT and VALUES (with UNDEF rows).  Every
family is drawn and checked inside one hypothesis example so the worker
pools (up to 11 processes per example) are booted once per dataset, not
once per query.  LIMIT pages may legitimately differ in *which* rows
they pick, so they assert size + subset-of-universe instead of identity.
"""

import multiprocessing
import os
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

EX = Namespace("http://diffbackend.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

SHARD_COUNTS = (1, 2, 8)

# Same deliberately tiny vocabulary as the persistence harness: random
# BGPs actually join, literals exercise the record codec.
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
_pattern_lists = st.lists(_patterns, min_size=1, max_size=3)
_triples = st.lists(st.builds(Triple, _iris, _iris, _objects), max_size=40)
_values_nodes = st.lists(
    st.tuples(st.one_of(st.none(), _iris), st.one_of(st.none(), _iris)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: ValuesNode(
        variables=(Variable("a"), Variable("b")), rows=tuple(rows)
    )
)


def _multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


def _select(*elements, **modifiers) -> SelectQuery:
    return SelectQuery(
        projection=(),
        where=GroupGraphPattern(tuple(elements)),
        select_all=True,
        **modifiers,
    )


def _backend_evaluators(triples, stack: ExitStack):
    """``(reference, [(label, evaluator), ...])`` across both backends."""
    reference = QueryEvaluator(TripleStore(triples=triples))
    evaluators = []
    # Entered first, so it is removed after every executor has closed.
    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="diffbackend-")))
    for count in SHARD_COUNTS:
        store = ShardedTripleStore(num_shards=count, triples=triples)
        evaluators.append((f"thread-{count}", ShardedQueryEvaluator(store)))
        executor = stack.enter_context(
            store.serve(tmp / f"shards{count}", start_method=START_METHOD)
        )
        evaluators.append(
            (
                f"process-{count}",
                ShardedQueryEvaluator(
                    store, backend="process", executor=executor
                ),
            )
        )
    return reference, evaluators


class TestDifferentialBackends:
    @given(
        triples=_triples,
        bgp=_pattern_lists,
        required=_patterns,
        optionals=st.lists(_patterns, min_size=1, max_size=2),
        left=st.lists(_patterns, min_size=1, max_size=2),
        right=st.lists(_patterns, min_size=1, max_size=2),
        values=_values_nodes,
        ask_patterns=_pattern_lists,
        limit=st.integers(min_value=0, max_value=7),
        chain_p1=_iris,
        chain_p2=_iris,
    )
    @settings(max_examples=8, deadline=None)
    def test_backends_agree_on_full_battery(
        self,
        triples,
        bgp,
        required,
        optionals,
        left,
        right,
        values,
        ask_patterns,
        limit,
        chain_p1,
        chain_p2,
    ):
        # An s–o chain is never co-partitioned: it exercises the join
        # shipping path (or, over the broadcast limit, the global one).
        chain = (
            TriplePatternNode(Variable("a"), chain_p1, Variable("b")),
            TriplePatternNode(Variable("b"), chain_p2, Variable("c")),
        )
        multiset_queries = [
            ("bgp", _select(*bgp)),
            (
                "optional",
                _select(
                    required, OptionalNode(GroupGraphPattern(tuple(optionals)))
                ),
            ),
            (
                "union",
                _select(
                    UnionNode(
                        branches=(
                            GroupGraphPattern(tuple(left)),
                            GroupGraphPattern(tuple(right)),
                        )
                    )
                ),
            ),
            ("values", _select(values, *bgp)),
            (
                "count",
                SelectQuery(
                    projection=(
                        ProjectionItem(
                            expression=CountExpression(), alias=Variable("c")
                        ),
                        ProjectionItem(
                            expression=CountExpression(
                                variable=Variable("a"), distinct=True
                            ),
                            alias=Variable("d"),
                        ),
                    ),
                    where=GroupGraphPattern(tuple(bgp)),
                ),
            ),
            ("chain", _select(*chain)),
            (
                "chain-count",
                SelectQuery(
                    projection=(
                        ProjectionItem(
                            expression=CountExpression(), alias=Variable("c")
                        ),
                        ProjectionItem(
                            expression=CountExpression(
                                variable=Variable("c"), distinct=True
                            ),
                            alias=Variable("d"),
                        ),
                    ),
                    where=GroupGraphPattern(chain),
                ),
            ),
            (
                "grouped-count",
                SelectQuery(
                    projection=(
                        ProjectionItem(variable=Variable("b")),
                        ProjectionItem(
                            expression=CountExpression(variable=Variable("a")),
                            alias=Variable("c"),
                        ),
                        ProjectionItem(
                            expression=CountExpression(
                                variable=Variable("c"), distinct=True
                            ),
                            alias=Variable("d"),
                        ),
                    ),
                    where=GroupGraphPattern(chain),
                    group_by=(Variable("b"),),
                ),
            ),
        ]
        ask = AskQuery(where=GroupGraphPattern(tuple(ask_patterns)))
        paged = _select(*bgp, limit=limit)
        universe_query = _select(*bgp)

        with ExitStack() as stack:
            reference, evaluators = _backend_evaluators(triples, stack)
            expectations = {
                label: _multiset(reference.evaluate(query))
                for label, query in multiset_queries
            }
            expected_ask = bool(reference.evaluate(ask))
            universe = _multiset(reference.evaluate(universe_query))
            expected_page = min(limit, sum(universe.values()))

            for label, evaluator in evaluators:
                for family, query in multiset_queries:
                    assert (
                        _multiset(evaluator.evaluate(query))
                        == expectations[family]
                    ), f"{family} @ {label}"
                assert bool(evaluator.evaluate(ask)) == expected_ask, label
                page = _multiset(evaluator.evaluate(paged))
                assert sum(page.values()) == expected_page, label
                for row, count in page.items():
                    assert universe[row] >= count, label
