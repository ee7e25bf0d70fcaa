"""Unit tests for scatter/gather evaluation and sharded explain."""

import random

import pytest

from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard import ShardedTripleStore
from repro.sparql import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.scatter import (
    ShardedBGPPlan,
    ShardedQueryEvaluator,
    co_partition_subject,
    evaluate_sharded,
)
from repro.sparql.bindings import Variable
from repro.store import TripleStore
from tests.reference_engine import naive_evaluator

EX = Namespace("http://scatter.test/")


def build_triples(seed=3):
    rng = random.Random(seed)
    triples = [
        Triple(
            EX[f"s{rng.randint(0, 40)}"],
            EX[f"p{rng.randint(0, 4)}"],
            EX[f"o{rng.randint(0, 40)}"],
        )
        for _ in range(500)
    ]
    # Chain-join fodder: objects that are themselves subjects elsewhere.
    triples += [Triple(EX[f"o{i}"], EX.link, EX[f"s{i % 40}"]) for i in range(40)]
    return triples


@pytest.fixture(scope="module")
def stores():
    triples = build_triples()
    return TripleStore(triples=triples), ShardedTripleStore(
        num_shards=4, triples=triples
    )


@pytest.fixture(scope="module")
def evaluator(stores):
    return ShardedQueryEvaluator(stores[1])


def multiset(result):
    from collections import Counter

    return Counter(frozenset(row.items()) for row in result)


class TestCoPartitionAnalysis:
    def where(self, query):
        return parse_query(query).where

    def test_star_query_is_co_partitioned(self):
        group = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?o2 }"
        )
        assert co_partition_subject(group) == Variable("s")

    def test_chain_query_is_not(self):
        group = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o . ?o <http://x/q> ?z }"
        )
        assert co_partition_subject(group) is None

    def test_constant_subject_is_not(self):
        group = self.where("SELECT * WHERE { <http://x/a> <http://x/p> ?o }")
        assert co_partition_subject(group) is None

    def test_values_only_group_is_not(self):
        group = self.where("SELECT * WHERE { VALUES ?s { <http://x/a> } }")
        assert co_partition_subject(group) is None

    def test_optional_and_union_share_subject(self):
        group = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o "
            "OPTIONAL { ?s <http://x/q> ?o2 } "
            "{ ?s <http://x/r> ?a } UNION { ?s <http://x/t> ?b } }"
        )
        assert co_partition_subject(group) == Variable("s")

    def test_optional_with_foreign_subject_is_not(self):
        group = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o OPTIONAL { ?o <http://x/q> ?z } }"
        )
        assert co_partition_subject(group) is None

    def test_exists_filter_recurses(self):
        same = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o "
            "FILTER NOT EXISTS { ?s <http://x/q> ?o } }"
        )
        assert co_partition_subject(same) == Variable("s")
        foreign = self.where(
            "SELECT * WHERE { ?s <http://x/p> ?o "
            "FILTER NOT EXISTS { ?o <http://x/q> ?s } }"
        )
        assert co_partition_subject(foreign) is None


class TestScatterEquivalence:
    QUERIES = [
        "SELECT ?s ?o WHERE { ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 }",
        "SELECT ?s ?o ?z WHERE { ?s <http://scatter.test/p1> ?o . ?o <http://scatter.test/link> ?z }",
        "SELECT DISTINCT ?s WHERE { ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p0> ?o2 }",
        "SELECT ?s ?o WHERE { ?s <http://scatter.test/p1> ?o OPTIONAL { ?s <http://scatter.test/p2> ?o2 } }",
        "SELECT ?s WHERE { ?s <http://scatter.test/p1> ?o FILTER NOT EXISTS { ?s <http://scatter.test/p2> ?o } }",
        "SELECT ?s ?p ?o WHERE { VALUES ?s { <http://scatter.test/s1> <http://scatter.test/s20> } ?s ?p ?o }",
        "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?s) AS ?d) WHERE { ?s <http://scatter.test/p1> ?o }",
        "ASK { ?s <http://scatter.test/p3> ?o . ?s <http://scatter.test/p1> ?o2 }",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_single_store_planned_and_naive(self, stores, evaluator, query):
        single, _ = stores
        sharded_result = evaluator.evaluate(query)
        planned = QueryEvaluator(single).evaluate(query)
        naive = naive_evaluator(single).evaluate(query)
        if query.startswith("ASK"):
            assert bool(sharded_result) == bool(planned) == bool(naive)
        else:
            assert multiset(sharded_result) == multiset(planned) == multiset(naive)

    def test_limit_returns_valid_subset(self, stores, evaluator):
        single, _ = stores
        query = "SELECT ?s ?o WHERE { ?s <http://scatter.test/p0> ?o } LIMIT 5"
        page = evaluator.evaluate(query)
        assert len(page) == 5
        full = multiset(
            QueryEvaluator(single).evaluate(
                "SELECT ?s ?o WHERE { ?s <http://scatter.test/p0> ?o }"
            )
        )
        for key in multiset(page):
            assert key in full

    def test_convenience_wrapper(self, stores):
        _, sharded = stores
        result = evaluate_sharded(
            sharded, "SELECT ?s WHERE { ?s <http://scatter.test/p1> ?o }"
        )
        assert len(result) == sharded.count(predicate=EX.p1)

    def test_rejects_plain_store(self, stores):
        single, _ = stores
        with pytest.raises(TypeError):
            ShardedQueryEvaluator(single)


class TestShortCircuit:
    def _spy_locals(self, evaluator):
        """Wrap each per-shard evaluator to record which shards evaluate."""
        touched = []

        def wrap(index, original):
            def spy(group, initial):
                touched.append(index)
                return original(group, initial)

            return spy

        for index, local in enumerate(evaluator._locals):
            local._evaluate_group = wrap(index, local._evaluate_group)
        return touched

    def test_ask_stops_at_first_contributing_shard(self, stores):
        _, sharded = stores
        evaluator = ShardedQueryEvaluator(sharded)
        touched = self._spy_locals(evaluator)
        assert evaluator.evaluate(
            "ASK { ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 }"
        )
        plan = evaluator.explain(
            "SELECT * WHERE { ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 }"
        )
        assert plan.mode == "scatter"
        # The first shard yielding a solution satisfies ASK; later shards
        # must never have been entered.
        assert touched == [min(plan.shards)]

    def test_limit_skips_trailing_shards(self, stores):
        _, sharded = stores
        evaluator = ShardedQueryEvaluator(sharded)
        touched = self._spy_locals(evaluator)
        result = evaluator.evaluate(
            "SELECT ?s ?o WHERE { ?s <http://scatter.test/p1> ?o } LIMIT 2"
        )
        assert len(result) == 2
        assert len(set(touched)) < sharded.num_shards


class TestShardedExplain:
    def test_star_query_scatters(self, evaluator):
        plan = evaluator.explain(
            "SELECT ?s ?o WHERE { ?s <http://scatter.test/p1> ?o . "
            "?s <http://scatter.test/p2> ?o2 }"
        )
        assert isinstance(plan, ShardedBGPPlan)
        assert plan.mode == "scatter"
        assert plan.subject_variable == Variable("s")
        assert plan.shard_count == 4
        assert len(plan.routing) == len(plan.steps) == 2
        assert plan.operators() == plan.plan.operators()
        for route in plan.routing:
            assert set(route.probed) | set(route.pruned) == set(range(4))

    def test_chain_query_ships(self, evaluator):
        plan = evaluator.explain(
            "SELECT * WHERE { ?s <http://scatter.test/p1> ?o . "
            "?o <http://scatter.test/link> ?z }"
        )
        assert plan.mode == "ship"
        # The link relation (40 triples) is the cheaper broadcast side, so
        # the p1 patterns anchor on ?s and the link pattern ships.
        assert plan.subject_variable == Variable("s")
        assert plan.fallback_reason is None
        shipped = [route for route in plan.routing if route.shipped]
        assert len(shipped) == 1
        assert "broadcast" in plan.describe()

    def test_constant_subject_chain_ships(self, evaluator):
        # A constant-subject pattern can ride along as a broadcast table:
        # the variable-subject pattern anchors the scatter.
        plan = evaluator.explain(
            "SELECT * WHERE { <http://scatter.test/s1> "
            "<http://scatter.test/p1> ?o . ?o <http://scatter.test/link> ?z }"
        )
        assert plan.mode == "ship"
        assert plan.subject_variable == Variable("o")

    def test_mixed_shape_falls_back_with_reason(self, evaluator):
        plan = evaluator.explain(
            "SELECT * WHERE { ?s <http://scatter.test/p1> ?o "
            "OPTIONAL { ?o <http://scatter.test/link> ?z } }"
        )
        assert plan.mode == "global"
        assert plan.subject_variable is None
        assert "not co-partitioned" in plan.fallback_reason
        assert "join shipping rejected" in plan.fallback_reason
        assert "mixes non-pattern elements" in plan.fallback_reason
        assert "fallback:" in plan.describe()

    def test_disconnected_product_falls_back_with_reason(self, evaluator):
        plan = evaluator.explain(
            "SELECT * WHERE { ?s <http://scatter.test/p1> ?o . "
            "?x <http://scatter.test/p2> ?y }"
        )
        assert plan.mode == "global"
        assert "connects every pattern" in plan.fallback_reason

    def test_broadcast_limit_rejects_with_reason(self, stores, monkeypatch):
        _, sharded = stores
        monkeypatch.setenv("REPRO_BROADCAST_LIMIT", "1")
        fresh = ShardedQueryEvaluator(sharded)
        plan = fresh.explain(
            "SELECT * WHERE { ?s <http://scatter.test/p1> ?o . "
            "?o <http://scatter.test/link> ?z }"
        )
        assert plan.mode == "global"
        assert "broadcast side too large" in plan.fallback_reason
        assert "REPRO_BROADCAST_LIMIT" in plan.fallback_reason

    def test_grouped_aggregate_with_limit_reports_parent_fold(self, evaluator):
        plan = evaluator.explain(
            "SELECT ?o (COUNT(?s) AS ?c) WHERE "
            "{ ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 } "
            "GROUP BY ?o LIMIT 2"
        )
        assert plan.mode == "scatter"
        assert "LIMIT/OFFSET" in plan.fallback_reason

    def test_non_count_aggregate_reports_parent_fold(self, evaluator):
        plan = evaluator.explain(
            "SELECT (STR(?o) AS ?x) (COUNT(*) AS ?c) WHERE "
            "{ ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 }"
        )
        assert plan.mode == "scatter"
        assert "cannot fold" in plan.fallback_reason

    def test_foldable_aggregate_has_no_fallback_reason(self, evaluator):
        plan = evaluator.explain(
            "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?o) AS ?d) WHERE "
            "{ ?s <http://scatter.test/p1> ?o . ?s <http://scatter.test/p2> ?o2 }"
        )
        assert plan.mode == "scatter"
        assert plan.fallback_reason is None

    def test_values_narrow_routing(self, stores, evaluator):
        _, sharded = stores
        subject = EX.s1
        home = sharded.shard_index_for_subject(sharded.term_id(subject))
        plan = evaluator.explain(
            f"SELECT ?p ?o WHERE {{ VALUES ?s {{ <{subject.value}> }} ?s ?p ?o }}"
        )
        assert plan.mode == "scatter"
        assert plan.shards == (home,)

    def test_describe_renders_routing(self, evaluator):
        plan = evaluator.explain(
            "SELECT ?s ?o WHERE { ?s <http://scatter.test/p1> ?o . "
            "?s <http://scatter.test/p2> ?o2 }"
        )
        text = plan.describe()
        assert "scatter on ?s" in text
        assert "shards probed=" in text and "pruned=" in text

    def test_unknown_constant_prunes_everything(self, evaluator):
        plan = evaluator.explain(
            "SELECT ?s WHERE { ?s <http://scatter.test/never_used> ?o }"
        )
        assert plan.shards == ()


class TestStalePlanInvalidation:
    """Regression: plans must refresh after mutations that keep the size."""

    def test_plan_cache_refreshes_after_equal_size_mutation(self):
        store = TripleStore(
            triples=[Triple(EX[f"a{i}"], EX.p, EX[f"b{i}"]) for i in range(10)]
        )
        evaluator = QueryEvaluator(store)
        query = "SELECT ?s WHERE { ?s <http://scatter.test/p> ?o . ?s <http://scatter.test/q> ?o2 }"
        before = evaluator.explain(query)
        assert before.steps[0].estimate == 0.0  # q has no facts yet
        # Swap one p-fact for a q-fact: size unchanged, content different.
        store.remove(Triple(EX.a0, EX.p, EX.b0))
        store.add(Triple(EX.a1, EX.q, EX.b1))
        assert len(store) == 10
        after = evaluator.explain(query)
        assert after is not before
        assert any(step.estimate > 0 for step in after.steps)
        # And the refreshed plan yields the (now non-empty) answer.
        result = evaluator.evaluate(query)
        assert len(result) == 1
