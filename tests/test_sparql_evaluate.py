"""Unit tests for SPARQL query evaluation over the triple store."""

import pytest

from repro.rdf.terms import IRI, Literal
from repro.rdf.triple import Triple
from repro.sparql.evaluate import QueryEvaluator, evaluate_query
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, ResultSet
from repro.store.triplestore import TripleStore

from tests.conftest import EX, EX2
from tests.reference_engine import per_row_evaluator

PREFIX = "PREFIX ex: <http://example.org/kb1/> PREFIX ex2: <http://example.org/kb2/> "


def run(store, query):
    return evaluate_query(store, PREFIX + query)


class TestBasicGraphPatterns:
    def test_single_pattern(self, people_store):
        result = run(people_store, "SELECT ?s WHERE { ?s ex:bornIn ex:USA }")
        assert [row.get_term(v) for row in result for v in result.variables] == [
            EX["Frank_Sinatra"]
        ]

    def test_join_on_shared_variable(self, people_store):
        result = run(
            people_store,
            "SELECT ?s ?name WHERE { ?s ex:profession ex:Physicist . ?s ex:name ?name }",
        )
        names = {row.get_term(result.variables[1]).lexical for row in result}
        assert names == {"Albert Einstein", "Marie Curie"}

    def test_join_with_no_solutions(self, people_store):
        result = run(
            people_store,
            "SELECT ?s WHERE { ?s ex:profession ex:Physicist . ?s ex:bornIn ex:USA }",
        )
        assert len(result) == 0

    def test_select_star_returns_all_variables(self, people_store):
        result = run(people_store, "SELECT * WHERE { ?s ex:bornIn ?c }")
        assert {v.name for v in result.variables} == {"s", "c"}
        assert len(result) == 3

    def test_constant_subject(self, people_store):
        result = run(people_store, "SELECT ?p ?o WHERE { ex:Marie_Curie ?p ?o }")
        assert len(result) == 3

    def test_ask_true_false(self, people_store):
        assert run(people_store, "ASK { ex:Marie_Curie ex:bornIn ex:Poland }")
        assert not run(people_store, "ASK { ex:Marie_Curie ex:bornIn ex:USA }")

    def test_empty_store(self, empty_store):
        assert len(evaluate_query(empty_store, "SELECT ?s WHERE { ?s ?p ?o }")) == 0


class TestModifiers:
    def test_distinct(self, people_store):
        result = run(people_store, "SELECT DISTINCT ?p WHERE { ?s ex:profession ?p }")
        assert len(result) == 2

    def test_without_distinct_duplicates_remain(self, people_store):
        result = run(people_store, "SELECT ?p WHERE { ?s ex:profession ?p }")
        assert len(result) == 3

    def test_limit_and_offset(self, people_store):
        full = run(people_store, "SELECT ?s WHERE { ?s ex:bornIn ?c } ORDER BY ?s")
        page = run(people_store, "SELECT ?s WHERE { ?s ex:bornIn ?c } ORDER BY ?s OFFSET 1 LIMIT 1")
        assert len(page) == 1
        assert page.rows[0] == full.rows[1]

    def test_order_by_ascending_descending(self, people_store):
        ascending = run(people_store, "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY ?n")
        descending = run(people_store, "SELECT ?n WHERE { ?s ex:name ?n } ORDER BY DESC(?n)")
        ascending_values = [row.get_term(ascending.variables[0]).lexical for row in ascending]
        descending_values = [row.get_term(descending.variables[0]).lexical for row in descending]
        assert ascending_values == sorted(ascending_values)
        assert descending_values == list(reversed(ascending_values))

    def test_order_by_numeric(self):
        store = TripleStore()
        for index, age in enumerate([30, 4, 100]):
            store.add(Triple(EX[f"p{index}"], EX.age, Literal(age)))
        result = evaluate_query(
            store, "PREFIX ex: <http://example.org/kb1/> SELECT ?a WHERE { ?s ex:age ?a } ORDER BY ?a"
        )
        assert [row.get_term(result.variables[0]).to_python() for row in result] == [4, 30, 100]


class TestOptionalUnionValues:
    def test_optional_binds_when_present(self, people_store):
        result = run(
            people_store,
            "SELECT ?s ?other WHERE { ?s ex:bornIn ex:USA OPTIONAL { ?s owl:sameAs ?other } }",
        )
        assert result.rows[0].get_term(result.variables[1]) == EX2["FrankSinatra"]

    def test_optional_keeps_solution_when_absent(self, people_store):
        result = run(
            people_store,
            "SELECT ?s ?other WHERE { ?s ex:bornIn ex:Poland OPTIONAL { ?s owl:sameAs ?other } }",
        )
        assert len(result) == 1
        assert result.rows[0].get_term(result.variables[1]) is None

    def test_union(self, people_store):
        result = run(
            people_store,
            "SELECT ?s WHERE { { ?s ex:bornIn ex:USA } UNION { ?s ex:bornIn ex:Poland } }",
        )
        assert len(result) == 2

    def test_values_restricts_bindings(self, people_store):
        result = run(
            people_store,
            "SELECT ?s ?c WHERE { VALUES ?s { ex:Marie_Curie ex:Albert_Einstein } ?s ex:bornIn ?c }",
        )
        assert len(result) == 2

    def test_values_with_undef(self, people_store):
        result = run(
            people_store,
            "SELECT ?s ?c WHERE { VALUES (?s ?c) { (ex:Marie_Curie UNDEF) } ?s ex:bornIn ?c }",
        )
        assert len(result) == 1
        assert result.rows[0].get_term(result.variables[1]) == EX.Poland


class TestFiltersAndAggregates:
    def test_filter_regex(self, people_store):
        result = run(
            people_store,
            'SELECT ?s WHERE { ?s ex:name ?n FILTER REGEX(?n, "curie", "i") }',
        )
        assert len(result) == 1

    def test_filter_comparison(self, people_store):
        result = run(
            people_store,
            'SELECT ?s WHERE { ?s ex:name ?n FILTER(?n != "Marie Curie") }',
        )
        assert len(result) == 2

    def test_filter_not_exists(self, people_store):
        result = run(
            people_store,
            "SELECT ?s WHERE { ?s ex:bornIn ?c FILTER NOT EXISTS { ?s owl:sameAs ?x } }",
        )
        assert [row.get_term(result.variables[0]) for row in result] == [EX["Marie_Curie"]]

    def test_filter_exists(self, people_store):
        result = run(
            people_store,
            "SELECT ?s WHERE { ?s ex:bornIn ?c FILTER EXISTS { ?s owl:sameAs ?x } }",
        )
        assert len(result) == 2

    def test_count_star(self, people_store):
        result = run(people_store, "SELECT (COUNT(*) AS ?c) WHERE { ?s ex:bornIn ?o }")
        assert result.scalar_int() == 3

    def test_count_on_empty_pattern_is_zero(self, people_store):
        result = run(people_store, "SELECT (COUNT(*) AS ?c) WHERE { ?s ex:livesIn ?o }")
        assert result.scalar_int() == 0
        assert len(result) == 1

    def test_count_distinct_variable(self, people_store):
        result = run(
            people_store, "SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE { ?s ex:profession ?p }"
        )
        assert result.scalar_int() == 2

    def test_count_group_by(self, people_store):
        result = run(
            people_store,
            "SELECT ?p (COUNT(?s) AS ?c) WHERE { ?s ex:profession ?p } GROUP BY ?p",
        )
        counts = {
            row.get_term(result.variables[0]).local_name: row.get_term(result.variables[1]).to_python()
            for row in result
        }
        assert counts == {"Physicist": 2, "Singer": 1}


class TestResultSetHelpers:
    def test_column_and_distinct_column(self, people_store):
        result = run(people_store, "SELECT ?p WHERE { ?s ex:profession ?p }")
        assert len(result.column("p")) == 3
        assert len(result.distinct_column("p")) == 2

    def test_to_dicts(self, people_store):
        result = run(people_store, "SELECT ?s WHERE { ?s ex:bornIn ex:USA }")
        assert result.to_dicts() == [{"s": EX["Frank_Sinatra"]}]

    def test_to_text_renders_header(self, people_store):
        result = run(people_store, "SELECT ?s ?c WHERE { ?s ex:bornIn ?c }")
        text = result.to_text(max_rows=2)
        assert "?s" in text and "?c" in text
        assert "more rows" in text

    def test_scalar_none_for_multi_row(self, people_store):
        result = run(people_store, "SELECT ?s WHERE { ?s ex:bornIn ?c }")
        assert result.scalar() is None

    def test_ask_result_equality(self):
        assert AskResult(True) == True  # noqa: E712
        assert AskResult(False) != AskResult(True)

    def test_evaluator_accepts_parsed_query(self, people_store):
        evaluator = QueryEvaluator(people_store)
        parsed = parse_query(PREFIX + "SELECT ?s WHERE { ?s ex:bornIn ex:USA }")
        result = evaluator.evaluate(parsed)
        assert isinstance(result, ResultSet) and len(result) == 1


class TestOrderByLimitTopK:
    """ORDER BY ... LIMIT takes the heap-based top-k path; its pages must
    be indistinguishable from slicing the fully sorted result."""

    @staticmethod
    def _numbers_store(count: int = 400) -> TripleStore:
        store = TripleStore()
        for index in range(count):
            entity = IRI(f"http://example.org/kb1/n{index}")
            store.add(Triple(entity, IRI("http://example.org/kb1/rank"), Literal((index * 37) % count)))
            store.add(Triple(entity, IRI("http://example.org/kb1/group"), Literal((index * 37) % 7)))
        return store

    @pytest.mark.parametrize(
        "order", ["?r", "DESC(?r)", "?g DESC(?r)", "DESC(?g) ?r"]
    )
    @pytest.mark.parametrize("offset,limit", [(0, 5), (3, 10), (0, 0), (395, 50)])
    def test_page_equals_full_sort_slice(self, order, offset, limit):
        store = self._numbers_store()
        base = (
            "SELECT ?s ?r ?g WHERE { ?s ex:rank ?r . ?s ex:group ?g } "
            f"ORDER BY {order}"
        )
        full = run(store, base)
        page = run(store, f"{base} OFFSET {offset} LIMIT {limit}")
        assert page.rows == full.rows[offset : offset + limit]

    def test_distinct_page_equals_full_sort_slice(self):
        store = self._numbers_store()
        base = "SELECT DISTINCT ?g WHERE { ?s ex:group ?g } ORDER BY DESC(?g)"
        full = run(store, base)
        page = run(store, f"{base} LIMIT 3")
        assert page.rows == full.rows[:3]

    def test_offset_past_result_is_empty(self):
        store = self._numbers_store(50)
        page = run(store, "SELECT ?r WHERE { ?s ex:rank ?r } ORDER BY ?r OFFSET 500 LIMIT 5")
        assert len(page) == 0

    def test_large_world_pages(self):
        from repro.synthetic.stream import generate_scale_world, scale_world_spec

        spec = scale_world_spec(20_000)
        world = generate_scale_world(spec)
        namespace = spec.namespace
        base = (
            f"SELECT ?a ?b WHERE {{ ?a <{namespace.term('p0').value}> ?b }} "
            "ORDER BY ?a DESC(?b)"
        )
        for evaluator in (
            QueryEvaluator(world.store),
            per_row_evaluator(world.store),
        ):
            full = evaluator.evaluate(parse_query(base))
            page = evaluator.evaluate(parse_query(base + " OFFSET 7 LIMIT 25"))
            assert page.rows == full.rows[7:32]
