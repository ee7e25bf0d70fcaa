"""SPARQL results serialisation: JSON/TSV documents and scalar parsing."""

from __future__ import annotations

import json

import pytest

from repro.errors import SparqlError
from repro.rdf.terms import IRI, XSD_INTEGER, BlankNode, Literal
from repro.sparql.bindings import Binding, Variable
from repro.sparql.results import AskResult, ResultSet
from repro.sparql.serialize import (
    content_type_for,
    from_sparql_json,
    serialize,
    term_from_json,
    term_to_json,
    to_sparql_json,
    to_sparql_tsv,
)

A, B = Variable("a"), Variable("b")


def _result() -> ResultSet:
    rows = [
        Binding({A: IRI("http://x.test/s"), B: Literal("plain")}),
        Binding({A: BlankNode("node7"), B: Literal("bonjour", language="fr")}),
        Binding({A: IRI("http://x.test/t")}),  # ?b unbound
        Binding({A: Literal(42), B: Literal("tab\there")}),
    ]
    return ResultSet.from_rows([A, B], rows)


class TestTermJson:
    @pytest.mark.parametrize(
        "term,expected",
        [
            (IRI("http://x.test/s"), {"type": "uri", "value": "http://x.test/s"}),
            (BlankNode("b1"), {"type": "bnode", "value": "b1"}),
            (Literal("v"), {"type": "literal", "value": "v"}),
            (
                Literal("chat", language="fr"),
                {"type": "literal", "value": "chat", "xml:lang": "fr"},
            ),
            (
                Literal(5),
                {
                    "type": "literal",
                    "value": "5",
                    "datatype": XSD_INTEGER,
                },
            ),
        ],
    )
    def test_roundtrip(self, term, expected):
        obj = term_to_json(term)
        assert obj == expected
        assert term_from_json(obj) == term

    def test_legacy_typed_literal_alias(self):
        term = term_from_json(
            {"type": "typed-literal", "value": "5", "datatype": XSD_INTEGER}
        )
        assert term == Literal(5)

    def test_malformed_objects_rejected(self):
        with pytest.raises(SparqlError):
            term_from_json({"type": "uri"})
        with pytest.raises(SparqlError):
            term_from_json({"type": "triple", "value": "x"})


class TestJsonDocuments:
    def test_select_document_shape(self):
        document = json.loads(to_sparql_json(_result()))
        assert document["head"]["vars"] == ["a", "b"]
        bindings = document["results"]["bindings"]
        assert len(bindings) == 4
        assert "b" not in bindings[2]  # unbound variables are omitted

    def test_roundtrip_preserves_solutions(self):
        result = _result()
        parsed = from_sparql_json(to_sparql_json(result))
        assert parsed.variables == result.variables
        assert [dict(row.items()) for row in parsed] == [
            dict(row.items()) for row in result
        ]

    def test_deterministic_bytes(self):
        assert to_sparql_json(_result()) == to_sparql_json(_result())

    def test_ask_document(self):
        assert json.loads(to_sparql_json(AskResult(True))) == {
            "head": {},
            "boolean": True,
        }
        assert from_sparql_json(to_sparql_json(AskResult(False))) == AskResult(False)

    def test_malformed_documents_rejected(self):
        for text in ("not json", "[]", '{"head":{}}'):
            with pytest.raises(SparqlError):
                from_sparql_json(text)


class TestTsvDocuments:
    def test_tsv_shape(self):
        lines = to_sparql_tsv(_result()).split("\n")
        assert lines[0] == "?a\t?b"
        assert lines[1] == '<http://x.test/s>\t"plain"'
        assert lines[2] == '_:node7\t"bonjour"@fr'
        assert lines[3] == "<http://x.test/t>\t"  # unbound -> empty cell
        assert lines[-1] == ""  # trailing newline

    def test_tab_in_literal_is_escaped(self):
        # N-Triples escaping keeps the cell free of raw delimiters.
        row = to_sparql_tsv(_result()).split("\n")[4]
        assert row.count("\t") == 1
        assert "\\t" in row

    def test_ask_has_no_tsv_form(self):
        with pytest.raises(SparqlError):
            to_sparql_tsv(AskResult(True))

    def test_serialize_dispatch(self):
        assert serialize(_result(), "tsv").startswith("?a\t?b")
        assert serialize(AskResult(True), "tsv").startswith('{"head"')
        assert content_type_for("json") == "application/sparql-results+json"
        assert content_type_for("tsv") == "text/tab-separated-values"
        with pytest.raises(SparqlError):
            serialize(_result(), "xml")


class TestScalarInt:
    """The COUNT-reading path: exact integers, junk handled, no crashes."""

    def _scalar(self, literal) -> ResultSet:
        variable = Variable("c")
        return ResultSet.from_rows([variable], [Binding({variable: literal})])

    def test_plain_integer(self):
        assert self._scalar(Literal(17)).scalar_int() == 17

    def test_huge_integer_is_exact(self):
        # Counts past 2**53 must not round through float.
        value = 2**60 + 1
        assert self._scalar(Literal(str(value))).scalar_int() == value

    def test_float_lexical(self):
        assert self._scalar(Literal("3.0")).scalar_int() == 3

    @pytest.mark.parametrize("lexical", ["INF", "-INF", "NaN", "bogus", ""])
    def test_non_finite_and_junk_default(self, lexical):
        # "INF" used to escape as an uncaught OverflowError from
        # int(float("INF")); every unusable lexical yields the default.
        assert self._scalar(Literal(lexical)).scalar_int() == 0
        assert self._scalar(Literal(lexical)).scalar_int(default=-1) == -1

    def test_non_literal_and_empty_default(self):
        variable = Variable("c")
        assert ResultSet.from_rows([variable], []).scalar_int(default=5) == 5
        assert self._scalar(IRI("http://x.test/s")).scalar_int() == 0
