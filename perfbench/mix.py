"""The serving workload's query mix, request stream and output check.

The pool holds many more distinct queries than the server's 256-entry
page cache, and the stream draws from it with Zipf popularity, so both
cache hits and misses occur.

The mix fixes only what the benchmark's specification fixes: the five
kinds below, and Zipf popularity.  No measured query log backs any
other choice, so each kind gets an equal share of the pool and of the
requests, and within a kind the exponent is 1, Zipf's law in its plain
form.  The seed picks the entities, predicates and offsets.  A run
reports the share of each kind it actually sent.

Kinds (``s:`` is the world namespace, ``eN`` entities, ``pN`` predicates):

* ``point`` — ``SELECT ?p ?o WHERE { s:eN ?p ?o }``
* ``ask`` — ``ASK { s:eN s:pA ?o }``
* ``page`` — ``SELECT ?s ?o WHERE { ?s s:pA ?o } LIMIT 50 OFFSET k``
* ``count`` — ``COUNT(*)`` over ``s:eN ?p ?o``, or (half of them)
  ``COUNT(DISTINCT ?s)`` over ``?s s:pA ?o``
* ``chain`` — two-hop s–o chain from ``s:eN``, or (half of them) one
  ending at ``s:eN``

An unordered page may hold any rows of the answer, so a page is checked
row by row (each row must hold in the reference) and by length (against
the reference's unpaged total); every other answer must equal the
reference answer as a set of rows.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

#: The query at pool index ``i`` is of kind ``KINDS[i % 5]``.
KINDS = ("point", "page", "ask", "chain", "count")

PAGE = 50


@dataclass(frozen=True)
class Query:
    kind: str
    text: str
    #: For unordered pages: an ASK that holds for a valid row
    #: (``str.format`` fields named after the variables) and the COUNT
    #: query of the unpaged answer size.
    row_check: Optional[str] = None
    total: Optional[str] = None
    limit: Optional[int] = None
    offset: int = 0


def build_pool(spec, size: int, seed: int) -> List[Query]:
    """``size`` distinct queries, kinds interleaved, each kind in popularity order."""
    rng = random.Random(seed)
    prefix = f"PREFIX s: <{spec.namespace.base}> "
    weights = []
    previous = 0.0
    for threshold in spec.predicate_thresholds():
        weights.append(threshold - previous)
        previous = threshold
    # Offsets stay within the first 2000 rows and inside the predicate.
    offsets = [max(1, min(2000, int(0.8 * spec.triples * weight))) for weight in weights]
    tail = list(range(spec.predicates // 2, spec.predicates))
    seen = set()
    pool: List[Query] = []
    for _ in range(20 * size):
        if len(pool) == size:
            return pool
        kind = KINDS[len(pool) % len(KINDS)]
        entity = f"s:e{rng.randrange(spec.entities)}"
        a = rng.randrange(spec.predicates)
        if kind == "point":
            query = Query(kind, prefix + f"SELECT ?p ?o WHERE {{ {entity} ?p ?o }}")
        elif kind == "ask":
            query = Query(kind, prefix + f"ASK {{ {entity} s:p{a} ?o }}")
        elif kind == "page":
            offset = rng.randrange(offsets[a])
            query = Query(
                kind,
                prefix + f"SELECT ?s ?o WHERE {{ ?s s:p{a} ?o }} LIMIT {PAGE} OFFSET {offset}",
                row_check=prefix + f"ASK {{{{ {{s}} s:p{a} {{o}} }}}}",
                total=prefix + f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s s:p{a} ?o }}",
                limit=PAGE,
                offset=offset,
            )
        elif kind == "count" and rng.random() < 0.5:
            query = Query(kind, prefix + f"SELECT (COUNT(*) AS ?c) WHERE {{ {entity} ?p ?o }}")
        elif kind == "count":
            query = Query(
                kind,
                prefix + f"SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE {{ ?s s:p{a} ?o }}",
            )
        elif rng.random() < 0.5:
            b = rng.choice(tail)
            query = Query(
                kind,
                prefix + f"SELECT ?m ?o WHERE {{ {entity} s:p{a} ?m . ?m s:p{b} ?o }}",
            )
        else:
            where = f"?s s:p{a} ?m . ?m s:p{rng.randrange(spec.predicates)} {entity}"
            query = Query(kind, prefix + f"SELECT ?s ?m WHERE {{ {where} }}")
        if query.text not in seen:
            seen.add(query.text)
            pool.append(query)
    raise ValueError(f"the world is too small for {size} distinct queries")


class ZipfStream:
    """Draws pool indices: a kind uniformly, then a query of that kind.

    The pool interleaves the kinds, so the query of popularity rank
    ``r`` within kind ``k`` sits at index ``r * len(KINDS) + k``; ``r``
    is drawn with probability proportional to ``1 / (r + 1)``.
    """

    def __init__(self, size: int, seed: int):
        self._rng = random.Random(seed)
        self._cumulative = []
        total = 0.0
        for rank in range(size // len(KINDS)):
            total += 1.0 / (rank + 1)
            self._cumulative.append(total)

    def draw(self, count: int) -> List[int]:
        top = self._cumulative[-1]
        last = len(self._cumulative) - 1
        return [
            min(bisect.bisect_left(self._cumulative, self._rng.random() * top), last)
            * len(KINDS) + self._rng.randrange(len(KINDS))
            for _ in range(count)
        ]


def canonical(result):
    """A comparable form of a result: ``bool`` for ASK, sorted row tuples."""
    from repro.rdf.ntriples import term_to_ntriples
    from repro.sparql.results import AskResult

    if isinstance(result, AskResult):
        return bool(result)
    names = sorted(variable.name for variable in result.variables)
    rows = []
    for row in result.to_dicts():
        rows.append(tuple(
            term_to_ntriples(row[name]) if row.get(name) is not None else ""
            for name in names
        ))
    return sorted(rows)


class Reference:
    """Answers on an in-process, unsharded reference store (memoised)."""

    def __init__(self, store):
        from repro.sparql.evaluate import QueryEvaluator

        self._evaluator = QueryEvaluator(store)
        self._memo: Dict[str, object] = {}

    def answer(self, text: str):
        if text not in self._memo:
            self._memo[text] = canonical(self._evaluator.evaluate(text))
        return self._memo[text]


def _count(answer) -> int:
    return int(answer[0][0].split('"')[1])


def check(query: Query, body: str, reference: Reference) -> Optional[str]:
    """``None`` when ``body`` is a valid answer to ``query``, else the reason."""
    from repro.sparql.serialize import from_sparql_json

    try:
        result = from_sparql_json(body)
        got = canonical(result)
    except Exception as error:  # noqa: BLE001 - any undecodable body is a mismatch
        return f"undecodable response ({type(error).__name__}: {error})"
    if query.row_check is None:
        return None if got == reference.answer(query.text) else "answer differs from the reference"
    names = sorted(variable.name for variable in result.variables)
    if len(set(got)) != len(got):
        return "duplicate rows"
    for row in got:
        if reference.answer(query.row_check.format(**dict(zip(names, row)))) is not True:
            return f"row {row} does not hold in the reference"
    expected = min(query.limit, max(0, _count(reference.answer(query.total)) - query.offset))
    if len(got) != expected:
        return f"{len(got)} rows, expected {expected}"
    return None
