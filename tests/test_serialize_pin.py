"""Pin the SPARQL results bytes: JSON and TSV must not drift.

The digests below are the sha256 of what :func:`to_sparql_json` and
:func:`to_sparql_tsv` produce for one fixed battery: query results over
a small store (unbound OPTIONAL cells, an empty SELECT, a zero-variable
row, ORDER BY, COUNT, DISTINCT pages, ASK) plus one result built by hand
(blank nodes, language and datatype literals, escapes, non-ASCII).  The
HTTP tier sends exactly these bytes and its page cache keeps them, so a
change here is a wire-format change.  Every query runs on the block
kernels and on the per-row reference operators; both must serialise
identically.
"""

import hashlib

import pytest

from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.rdf.triple import Triple
from repro.sparql.bindings import Binding, Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.results import AskResult, ResultSet
from repro.sparql.serialize import from_sparql_json, to_sparql_json, to_sparql_tsv
from repro.store.triplestore import TripleStore
from tests.reference_engine import per_row

EX = Namespace("http://pin.test/")

JSON_DIGEST = "2f135ee116b542e17df6e5911aff9fabf1d988e223c645c950036a0fabf9f315"
TSV_DIGEST = "4943ef13cb62c977542953228f513446ed64cd0b0a55774ad8be6e4b83f643b6"

ESCAPES = 'tab\there "quoted" back\\slash\nnew line, crlf\r\n and é ü 漢字'

QUERIES = [
    f"SELECT ?s ?l WHERE {{ ?s <{EX.p.value}> ?o OPTIONAL {{ ?s <{EX.label.value}> ?l }} }}",
    "SELECT * WHERE { ?s ?p ?o }",
    f"SELECT ?x WHERE {{ ?x <{EX.none.value}> ?y }}",
    f"SELECT * WHERE {{ <{EX.s1.value}> <{EX.p.value}> <{EX.o1.value}> }}",
    "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?s) AS ?d) WHERE { ?s ?p ?o }",
    f"SELECT ?s (COUNT(?o) AS ?n) WHERE {{ ?s <{EX.p.value}> ?o }} GROUP BY ?s",
    "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s LIMIT 7 OFFSET 1",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 3 OFFSET 1",
    f"SELECT ?s ?o WHERE {{ VALUES ?s {{ <{EX.s1.value}> <{EX.s2.value}> <{EX.absent.value}> }} ?s ?p ?o }}",
    f"SELECT ?o ?o WHERE {{ <{EX.s1.value}> ?p ?o }}",
    f"ASK {{ ?s <{EX.p.value}> ?o }}",
    f"ASK {{ ?s <{EX.none.value}> ?o }}",
]


def _store() -> TripleStore:
    store = TripleStore()
    for index in range(6):
        subject = EX[f"s{index}"]
        store.add(Triple(subject, EX.p, EX[f"o{index % 4}"]))
        if index % 2:
            store.add(Triple(subject, EX.label, Literal(f"nom {index}", language="fr")))
        store.add(Triple(subject, EX.size, Literal(index * 7)))
    store.add(Triple(EX.s1, EX.note, Literal(ESCAPES)))
    store.add(Triple(EX.s1, EX.when, Literal("2001-02-03", datatype=EX.date.value)))
    store.add(Triple(BlankNode("b1"), EX.near, EX.s1))
    return store


def _by_hand() -> ResultSet:
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    rows = [
        Binding({a: IRI("http://x.test/s"), b: Literal("plain")}),
        Binding({a: BlankNode("node7"), b: Literal("bonjour", language="fr")}),
        Binding({a: IRI("http://x.test/t")}),
        Binding({b: Literal(ESCAPES), c: Literal("1.5", datatype=EX.dec.value)}),
        Binding({}),
        Binding({c: Literal(42)}),
    ]
    return ResultSet.from_rows([a, b, c], rows)


def _battery(kernel: bool):
    evaluator = QueryEvaluator(_store())
    if not kernel:
        per_row(evaluator)
    results = [evaluator.evaluate(text) for text in QUERIES]
    return results + [_by_hand(), ResultSet.from_rows([Variable("z")], [])]


def _digests(results):
    json_hash, tsv_hash = hashlib.sha256(), hashlib.sha256()
    for result in results:
        json_hash.update(to_sparql_json(result).encode("utf-8") + b"\x00")
        if isinstance(result, ResultSet):
            tsv_hash.update(to_sparql_tsv(result).encode("utf-8") + b"\x00")
    return json_hash.hexdigest(), tsv_hash.hexdigest()


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "per-row"])
def test_serialised_bytes_are_pinned(kernel):
    assert _digests(_battery(kernel)) == (JSON_DIGEST, TSV_DIGEST)


def test_json_round_trip_keeps_bytes():
    for result in _battery(True):
        text = to_sparql_json(result)
        parsed = from_sparql_json(text)
        assert to_sparql_json(parsed) == text
        if isinstance(result, AskResult):
            assert parsed == result
            continue
        assert to_sparql_tsv(parsed) == to_sparql_tsv(result)
        assert len(parsed) == len(result)
        assert parsed.to_dicts() == result.to_dicts()
