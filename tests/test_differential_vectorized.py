"""Differential fuzzing: vectorized kernels vs the per-row reference.

For hypothesis-generated datasets, every query family must produce the
same solution multiset whether the group is evaluated by the block
kernels or by the per-row reference operators — across every backend
the kernels run on:

* the warm single store,
* a cold mmap-reopened snapshot of it,
* ``ShardedQueryEvaluator`` at 1, 2 and 8 thread-backed shards,
* the process-backed scatter executor (whose workers build their own
  vectorized evaluators over the per-shard snapshots).

The reference is always the per-row operators of
:mod:`tests.reference_engine` on a warm single store.
LIMIT pages may legitimately differ in *which* rows they pick, so they
assert size + subset-of-universe instead of identity (ASK and LIMIT also
exercise the early-exit path through the block stream).
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
from repro.sparql import kernels
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore
from tests.reference_engine import per_row_evaluator

EX = Namespace("http://diffvec.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

SHARD_COUNTS = (1, 2, 8)

# Deliberately tiny vocabulary so random BGPs actually join; repeated
# variables within one pattern (e.g. ?a ?a ?b) are drawn too, exercising
# the kernels' equality masks.
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


def _vectorized_evaluators(triples, stack: ExitStack):
    """``(per-row reference, [(label, vectorized evaluator), ...])``."""
    reference = per_row_evaluator(TripleStore(triples=triples))
    warm = TripleStore(triples=triples)
    evaluators = [("warm", QueryEvaluator(warm))]
    # Entered first, so it is removed after the executor has closed.
    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="diffvec-")))
    warm.save(tmp / "store.snap")
    evaluators.append(("cold-mmap", QueryEvaluator(TripleStore.open(tmp / "store.snap"))))
    for count in SHARD_COUNTS:
        store = ShardedTripleStore(num_shards=count, triples=triples)
        evaluators.append((f"thread-{count}", ShardedQueryEvaluator(store)))
    process_store = ShardedTripleStore(num_shards=2, triples=triples)
    executor = stack.enter_context(
        process_store.serve(tmp / "shards", start_method=START_METHOD)
    )
    evaluators.append(
        (
            "process-2",
            ShardedQueryEvaluator(process_store, backend="process", executor=executor),
        )
    )
    return reference, evaluators


class TestDifferentialVectorized:
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
    )
    @settings(max_examples=8, deadline=None)
    def test_vectorized_agrees_with_scalar_battery(
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
    ):
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
        ]
        ask = AskQuery(where=GroupGraphPattern(tuple(ask_patterns)))
        paged = _select(*bgp, limit=limit)

        with ExitStack() as stack:
            reference, evaluators = _vectorized_evaluators(triples, stack)
            expectations = {
                label: _multiset(reference.evaluate(query))
                for label, query in multiset_queries
            }
            expected_ask = bool(reference.evaluate(ask))
            universe = expectations["bgp"]
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


# --------------------------------------------------------------------- #
# Columnar finish: projection, DISTINCT and OFFSET/LIMIT in ID columns
# --------------------------------------------------------------------- #
# ``?d`` never occurs in a pattern, so projecting it exercises the
# stays-unbound rule.
_projections = st.one_of(
    st.none(),  # SELECT *
    st.lists(
        st.sampled_from([Variable(name) for name in "abcd"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)


def _plain_select(patterns, projection, distinct=False, offset=0, limit=None):
    return SelectQuery(
        projection=tuple(ProjectionItem(variable=v) for v in projection or ()),
        where=GroupGraphPattern(tuple(patterns)),
        select_all=projection is None,
        distinct=distinct,
        offset=offset,
        limit=limit,
    )


def _without_finish(evaluator, query):
    """``query`` on the per-row path: the same kernels emit rows that are
    projected, deduplicated and paged one at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryEvaluator, "_columnar_plan", lambda self, query: None)
        return evaluator.evaluate(query)


def _finish_stores(triples, directory: Path):
    warm = TripleStore(triples=triples)
    warm.save(directory / "store.snap")
    return [("warm", warm), ("cold-mmap", TripleStore.open(directory / "store.snap"))]


def _assert_finish_agrees(stores, reference, patterns, projection, distinct, offset, limit):
    query = _plain_select(patterns, projection, distinct, offset, limit)
    unpaged = _plain_select(patterns, projection, distinct)
    universe = _multiset(reference.evaluate(unpaged))
    expected_page = max(0, sum(universe.values()) - offset)
    if limit is not None:
        expected_page = min(limit, expected_page)
    for label, store in stores:
        evaluator = QueryEvaluator(store)
        finished = evaluator.evaluate(query)
        streamed = _without_finish(evaluator, query)
        assert finished.variables == streamed.variables, label
        assert finished.rows == streamed.rows, label
        assert _multiset(evaluator.evaluate(unpaged)) == universe, label
        page = _multiset(finished)
        assert sum(page.values()) == expected_page, label
        for row, count in page.items():
            assert universe[row] >= count, label


class TestColumnarFinish:
    @given(
        triples=_triples,
        bgp=_pattern_lists,
        projection=_projections,
        distinct=st.booleans(),
        offset=st.integers(min_value=0, max_value=12),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    )
    @settings(max_examples=60, deadline=None)
    def test_finish_matches_per_row_order(
        self, triples, bgp, projection, distinct, offset, limit
    ):
        reference = per_row_evaluator(TripleStore(triples=triples))
        with tempfile.TemporaryDirectory(prefix="diffvec-finish-") as tmp:
            stores = _finish_stores(triples, Path(tmp))
            _assert_finish_agrees(
                stores, reference, bgp, projection, distinct, offset, limit
            )

    def test_merge_probe_and_cross_plans_finish_in_columns(self, tmp_path):
        ex = Namespace("http://finish.test/")
        triples = []
        for index in range(4600):  # > one block, so DISTINCT spans blocks
            subject = ex[f"e{index}"]
            triples.append(Triple(subject, ex.p, ex[f"e{(index * 7) % 25}"]))
            if index % 3 == 0:
                triples.append(Triple(subject, ex.type, ex.C))
            if index % 4 == 0:
                triples.append(Triple(subject, ex.q, Literal(f"v{index % 5}")))
        triples += [Triple(ex[f"t{i}"], ex.tag, ex[f"g{i % 2}"]) for i in range(3)]
        s, o, v, t, g = (Variable(name) for name in "sovtg")
        shapes = {
            # two blocks whose ?o values repeat across the block boundary
            "scan": [TriplePatternNode(s, ex.p, o)],
            # scan sorted on ?s, merge on ?s, then a probe join on ?s
            "merge": [
                TriplePatternNode(s, ex.type, ex.C),
                TriplePatternNode(s, ex.q, Literal("v0")),
                TriplePatternNode(s, ex.p, o),
            ],
            "probe": [TriplePatternNode(s, ex.p, o), TriplePatternNode(o, ex.q, v)],
            "cross": [TriplePatternNode(s, ex.q, v), TriplePatternNode(t, ex.tag, g)],
        }
        reference = per_row_evaluator(TripleStore(triples=triples))
        stores = _finish_stores(triples, tmp_path)
        finished = []
        real_finish = kernels.finish

        def spy(*args):
            finished.append(args)
            return real_finish(*args)

        for shape, patterns in shapes.items():
            plan = QueryEvaluator(stores[0][1]).explain(
                _plain_select(patterns, None)
            )
            operators = [step.operator for step in plan.steps]
            expected_operator = {
                "scan": "scan", "merge": "merge", "probe": "nested", "cross": "hash"
            }
            assert expected_operator[shape] in operators
            calls = len(finished)
            for projection, distinct, offset, limit in [
                (None, False, 0, None),
                ([s], True, 0, None),
                ([o], True, 0, None),
                ([o], True, 20, 10),
                ([o, Variable("d")], False, 4090, 10),
                ([o, s], True, 3, 5),
                ([v, s, g], True, 1, 4),
                ([Variable("d"), s], False, 2, 3),
                ([s], True, 10**6, 5),  # OFFSET past the end
                (None, True, 0, 0),  # LIMIT 0
            ]:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(kernels, "finish", spy)
                    _assert_finish_agrees(
                        stores, reference, patterns, projection, distinct, offset, limit
                    )
            assert len(finished) > calls, shape  # the columnar path ran

    def test_sharded_evaluator_keeps_its_routing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sharded evaluation entered the columnar finish")

        monkeypatch.setattr(kernels, "finish", refuse)
        s, o = Variable("s"), Variable("o")
        triples = [Triple(EX[f"n{i}"], EX["p"], EX[f"n{i % 3}"]) for i in range(6)]
        evaluator = ShardedQueryEvaluator(ShardedTripleStore(num_shards=2, triples=triples))
        scatter = _plain_select([TriplePatternNode(s, EX["p"], o)], [s], True, 1, 3)
        assert len(evaluator.evaluate(scatter)) == 3
        assert evaluator.last_mode() == "scatter"
        chain = _plain_select(
            [TriplePatternNode(s, EX["p"], o), TriplePatternNode(o, EX["p"], Variable("x"))],
            None,
        )
        reference = per_row_evaluator(TripleStore(triples=triples))
        assert _multiset(evaluator.evaluate(chain)) == _multiset(reference.evaluate(chain))
        assert evaluator.last_mode() in ("ship", "global")
