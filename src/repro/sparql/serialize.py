"""SPARQL 1.1 Query Results serialisation: JSON and TSV.

The wire formats of the HTTP service tier (`SPARQL 1.1 Query Results
JSON Format <https://www.w3.org/TR/sparql11-results-json/>`_ and the TSV
half of `SPARQL 1.1 Query Results CSV and TSV Formats
<https://www.w3.org/TR/sparql11-results-csv-tsv/>`_).  Serialisation is
deterministic — fixed key order, compact separators — so two runs that
produce the same result set produce byte-identical documents; the
differential suite pins HTTP responses against in-process evaluation on
exactly that property.

:func:`from_sparql_json` is the inverse used by
:class:`~repro.http.client.HttpSparqlClient` to turn a response body
back into the same :class:`~repro.sparql.results.ResultSet` /
:class:`~repro.sparql.results.AskResult` objects the in-process endpoint
returns, which is what lets the typed
:class:`~repro.endpoint.client.EndpointClient` run unchanged over a
socket.
"""

from __future__ import annotations

import json
from typing import Dict, Union

from repro.errors import SparqlError
from repro.rdf.ntriples import term_to_ntriples
from repro.rdf.terms import IRI, BlankNode, Literal, Term, XSD_STRING
from repro.sparql.bindings import Variable
from repro.sparql.results import AskResult, ResultSet

#: Media type of the SPARQL 1.1 JSON results format.
SPARQL_JSON_MIME = "application/sparql-results+json"

#: Media type of the SPARQL 1.1 TSV results format.
SPARQL_TSV_MIME = "text/tab-separated-values"


# --------------------------------------------------------------------- #
# Term <-> JSON
# --------------------------------------------------------------------- #
def term_to_json(term: Term) -> Dict[str, str]:
    """One RDF term as a SPARQL-results-JSON term object."""
    if isinstance(term, IRI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    if isinstance(term, Literal):
        obj: Dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.language:
            obj["xml:lang"] = term.language
        elif term.datatype and term.datatype != XSD_STRING:
            # xsd:string is the implicit datatype of simple literals; the
            # spec serialises those without a datatype key.
            obj["datatype"] = term.datatype
        return obj
    raise SparqlError(f"Cannot serialise term of type {type(term).__name__}")


def term_from_json(obj: Dict[str, str]) -> Term:
    """The inverse of :func:`term_to_json`."""
    kind = obj.get("type")
    value = obj.get("value")
    if not isinstance(value, str):
        raise SparqlError(f"Results-JSON term object without a value: {obj!r}")
    if kind == "uri":
        return IRI(value)
    if kind == "bnode":
        return BlankNode(value)
    if kind in ("literal", "typed-literal"):  # typed-literal: legacy alias
        language = obj.get("xml:lang")
        datatype = obj.get("datatype")
        if language:
            return Literal(value, language=language)
        return Literal(value, datatype=datatype)
    raise SparqlError(f"Unknown results-JSON term type: {kind!r}")


# --------------------------------------------------------------------- #
# JSON documents
# --------------------------------------------------------------------- #
def to_sparql_json(result: Union[ResultSet, AskResult]) -> str:
    """A result as a SPARQL 1.1 Results JSON document (deterministic bytes)."""
    if isinstance(result, AskResult):
        document: Dict[str, object] = {"head": {}, "boolean": bool(result)}
    elif isinstance(result, ResultSet):
        names = [v.name for v in result.variables]
        bindings = [
            # Unbound OPTIONAL variables are omitted.
            {name: term_to_json(term) for name, term in zip(names, cells) if term is not None}
            for cells in result.cells()
        ]
        document = {"head": {"vars": names}, "results": {"bindings": bindings}}
    else:
        raise SparqlError(
            f"Cannot serialise result of type {type(result).__name__}"
        )
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


def from_sparql_json(text: Union[str, bytes]) -> Union[ResultSet, AskResult]:
    """Parse a SPARQL 1.1 Results JSON document back into a result object."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        document = json.loads(text)
    except ValueError as error:
        raise SparqlError(f"Malformed results-JSON document: {error}") from None
    if not isinstance(document, dict):
        raise SparqlError("Results-JSON document must be an object")
    if "boolean" in document:
        return AskResult(bool(document["boolean"]))
    head = document.get("head") or {}
    results = document.get("results")
    if not isinstance(results, dict) or "bindings" not in results:
        raise SparqlError("Results-JSON document has neither boolean nor bindings")
    names = head.get("vars", [])
    entries = results["bindings"]
    # A name listed twice in the head shares one column.
    columns = {name: [None] * len(entries) for name in names}
    for row, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SparqlError(f"Malformed results-JSON binding: {entry!r}")
        for name, obj in entry.items():
            term = term_from_json(obj)
            if name in columns:  # a name outside the head binds nothing
                columns[name][row] = term
    return ResultSet([Variable(n) for n in names], [columns[n] for n in names], len(entries))


# --------------------------------------------------------------------- #
# TSV documents
# --------------------------------------------------------------------- #
def to_sparql_tsv(result: ResultSet) -> str:
    """A SELECT result as a SPARQL 1.1 TSV document.

    Terms are encoded in Turtle/N-Triples syntax as the TSV specification
    requires (tabs, newlines and quotes inside literals are escaped by the
    term encoding, so cells never contain a raw delimiter); unbound
    variables serialise as empty cells.  ASK results have no TSV form —
    the server always answers ASK queries with JSON.
    """
    if not isinstance(result, ResultSet):
        raise SparqlError(
            f"TSV serialisation is defined for SELECT results, "
            f"not {type(result).__name__}"
        )
    lines = ["\t".join(f"?{v.name}" for v in result.variables)]
    for cells in result.cells():
        lines.append(
            "\t".join("" if term is None else term_to_ntriples(term) for term in cells)
        )
    return "\n".join(lines) + "\n"


def content_type_for(fmt: str) -> str:
    """The HTTP ``Content-Type`` for a format key (``json`` / ``tsv``)."""
    if fmt == "json":
        return SPARQL_JSON_MIME
    if fmt == "tsv":
        return SPARQL_TSV_MIME
    raise SparqlError(f"Unknown result format {fmt!r}")


def serialize(result: Union[ResultSet, AskResult], fmt: str) -> str:
    """Serialise ``result`` as ``fmt`` (``json`` or ``tsv``).

    ASK results are always rendered as JSON (TSV has no boolean form);
    callers that honour content negotiation should check the returned
    document's media type via the result type, as the HTTP tier does.
    """
    if fmt == "tsv" and isinstance(result, ResultSet):
        return to_sparql_tsv(result)
    if fmt in ("json", "tsv"):
        return to_sparql_json(result)
    raise SparqlError(f"Unknown result format {fmt!r}")
