"""Differential test: VALUES seeds and FILTER masks in ID columns.

Groups that hold triple patterns plus one VALUES node and/or FILTERs of
the shapes ``?a = ?b``, ``?a != ?b`` and ``[NOT] EXISTS { one pattern }``
finish in ID columns (:func:`repro.sparql.kernels.plan_blocks` +
:func:`~repro.sparql.kernels.finish`).  Unordered pages decide which
samples the aligner sees, so the contract is the *ordered* row list of
the per-row path, which every case here is compared against.  The
per-row path is forced by making ``QueryEvaluator._columnar_plan``
return ``None``.

Every case runs on a warm store, on a store built by incremental adds
and removes (so dict insertion order disagrees with ID order) and on a
cold mmap-reopened snapshot; with one block per query and with tiny
blocks, so the lookup cut, DISTINCT across blocks and per-block masks
are all exercised.  The warm-order repro at the end pins that warm and
cold indexes stream a one-constant pattern in the same order on both
paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.rdf.namespace import Namespace
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER, BlankNode, Literal
from repro.rdf.triple import Triple
from repro.sparql import kernels
from repro.sparql.evaluate import QueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://diffcol.test/")
NS = "http://diffcol.test/"
INT = f"<{XSD_INTEGER}>"
DOUBLE = f"<{XSD_DOUBLE}>"


def _dataset():
    """Subjects with IRI, blank-node and literal objects on ``p`` and ``q``.

    ``"01"`` and ``"1"`` are distinct integer literals of equal value, and
    ``"NaN"`` is a double that equals nothing, itself included.
    """
    one, zero_one = Literal("1", datatype=XSD_INTEGER), Literal("01", datatype=XSD_INTEGER)
    nan = Literal("NaN", datatype=XSD_DOUBLE)
    triples = []
    for index in range(30):
        subject = EX[f"s{index}"]
        triples.append(Triple(subject, EX.p, EX[f"o{index % 7}"]))
        triples.append(Triple(subject, EX.q, EX[f"o{(index * 3) % 7}"]))
        if index % 4 == 0:
            triples.append(Triple(subject, EX.p, EX[f"o{(index + 1) % 7}"]))
            triples.append(Triple(subject, EX.q, EX[f"s{index + 1}"]))
        if index % 5 == 0:
            triples.append(Triple(subject, EX.p, zero_one))
            triples.append(Triple(subject, EX.p, nan))
            triples.append(Triple(subject, EX.q, one))
            triples.append(Triple(subject, EX.q, nan))
        if index % 6 == 0:
            triples.append(Triple(subject, EX.q, zero_one))
            triples.append(Triple(subject, EX.p, BlankNode(f"b{index % 3}")))
            triples.append(Triple(subject, EX.q, BlankNode(f"b{index % 2}")))
    return triples


def _mutated(triples):
    """The same dataset grown by single adds and removes, objects first,
    so keys and seconds land in an order unlike their IDs."""
    store = TripleStore()
    transient = [Triple(EX.tmp, EX.r, triple.object) for triple in triples[::3]]
    for triple in transient:
        store.add(triple)
    for triple in reversed(triples):
        store.add(triple)
    for triple in transient:
        store.remove(triple)
    return store


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    triples = _dataset()
    warm = TripleStore(triples=triples)
    path = tmp_path_factory.mktemp("diffcol") / "store.snap"
    warm.save(path)
    return [
        ("warm", warm),
        ("mutated", _mutated(triples)),
        ("cold-mmap", TripleStore.open(path)),
    ]


def _per_row(evaluator, query):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryEvaluator, "_columnar_plan", lambda self, query: None)
        return evaluator.evaluate(query)


def _columnar_finishes(evaluator, query) -> bool:
    before = obs_metrics.registry().value("kernel.vectorized")
    calls = []
    real = kernels.finish

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "finish", spy)
        evaluator.evaluate(query)
    if calls:
        assert obs_metrics.registry().value("kernel.vectorized") == before + 1
    return bool(calls)


#: (select clause, solution modifiers) combinations run for every case.
MODIFIERS = [
    ("SELECT", ""),
    ("SELECT DISTINCT", ""),
    ("SELECT", " OFFSET 3"),
    ("SELECT", " LIMIT 4"),
    ("SELECT", " OFFSET 2 LIMIT 5"),
    ("SELECT DISTINCT", " OFFSET 1 LIMIT 3"),
    ("SELECT", " LIMIT 0"),
]

VALUES_CASES = {
    "one-var-dups-missing": (
        "?s ?o",
        f"VALUES ?s {{ <{NS}s1> <{NS}s4> <{NS}s1> <{NS}nope> <{NS}s5> }} ?s <{NS}p> ?o",
    ),
    "two-vars-three-fixed": (
        "?s ?o",
        f"VALUES (?s ?o) {{ (<{NS}s1> <{NS}o1>) (<{NS}s3> <{NS}o2>) (<{NS}s1> <{NS}o1>)"
        f" (<{NS}nope> <{NS}o1>) (<{NS}s5> \"01\"^^{INT}) (<{NS}s2> <{NS}o6>) }} ?s <{NS}p> ?o",
    ),
    "two-vars-osp-run": (
        "?s ?p ?o",
        f"VALUES (?s ?o) {{ (<{NS}s0> <{NS}o0>) (<{NS}s5> \"1\"^^{INT}) (<{NS}s4> <{NS}o5>)"
        f" (<{NS}s0> \"NaN\"^^{DOUBLE}) (<{NS}s0> <{NS}o0>) }} ?s ?p ?o",
    ),
    "describe": (
        "?s ?p ?o",
        f"VALUES ?s {{ <{NS}s0> <{NS}s12> <{NS}nope> <{NS}s0> <{NS}o1> }} ?s ?p ?o",
    ),
    "object-side": (
        "?s ?o",
        f"VALUES ?o {{ <{NS}o1> \"01\"^^{INT} <{NS}o3> <{NS}o1> }} ?s <{NS}q> ?o",
    ),
    "empty-block": ("?s ?o", f"VALUES ?s {{ }} ?s <{NS}p> ?o"),
    "all-missing": ("?s ?o", f"VALUES ?s {{ <{NS}nope> }} ?s <{NS}p> ?o"),
    "missing-constant": ("?s ?o", f"VALUES ?s {{ <{NS}s1> }} ?s <{NS}nope> ?o"),
    "then-join": (
        "*",
        f"VALUES ?s {{ <{NS}s2> <{NS}s0> <{NS}s8> <{NS}s2> }} ?s <{NS}p> ?o . ?s <{NS}q> ?z",
    ),
    "seed-not-first": (
        "?s ?z",
        f"VALUES ?o {{ <{NS}o0> <{NS}o2> }} ?s <{NS}p> ?o . ?s <{NS}q> ?z",
    ),
    "with-filters": (
        "?s ?y1 ?y2",
        f"VALUES ?s {{ <{NS}s0> <{NS}s5> <{NS}s10> <{NS}s0> }} ?s <{NS}p> ?y1 ."
        f" ?s <{NS}q> ?y2 FILTER(?y1 != ?y2) FILTER NOT EXISTS {{ ?s <{NS}p> ?y2 }}",
    ),
}

FILTER_CASES = {
    "ubs-disagreement": (
        "?x ?y1 ?y2",
        f"?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 . FILTER(?y1 != ?y2)"
        f" FILTER NOT EXISTS {{ ?x <{NS}p> ?y2 }}",
    ),
    "equal": ("?x ?y1 ?y2", f"?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 . FILTER(?y1 = ?y2)"),
    "not-equal": ("?x ?y1 ?y2", f"?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 . FILTER(?y1 != ?y2)"),
    "same-variable": ("?x ?y", f"?x <{NS}p> ?y . FILTER(?y = ?y)"),
    "subject-vs-object": ("?x ?y", f"?x <{NS}q> ?y . FILTER(?x != ?y)"),
    "exists": ("?x ?y1", f"?x <{NS}p> ?y1 . FILTER EXISTS {{ ?x <{NS}q> ?y1 }}"),
    "exists-constant": ("?x ?y1", f"?x <{NS}p> ?y1 . FILTER EXISTS {{ ?x <{NS}q> <{NS}o0> }}"),
    "exists-missing": ("?x ?y1", f"?x <{NS}p> ?y1 . FILTER EXISTS {{ ?x <{NS}nope> ?y1 }}"),
    "not-exists-missing": (
        "?x ?y1",
        f"?x <{NS}p> ?y1 . FILTER NOT EXISTS {{ ?x <{NS}nope> ?y1 }}",
    ),
    "filter-first": (
        "?x ?y1",
        f"FILTER NOT EXISTS {{ ?y1 <{NS}q> ?x }} ?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 ."
        " FILTER(?x != ?y2)",
    ),
}

DECLINED_CASES = {
    "undef": f"VALUES (?s ?o) {{ (<{NS}s1> UNDEF) (<{NS}s2> <{NS}o2>) }} ?s <{NS}p> ?o",
    "unused-values-var": f"VALUES ?z {{ <{NS}o1> <{NS}o2> }} ?s <{NS}p> ?o",
    "two-values": (
        f"VALUES ?s {{ <{NS}s1> }} VALUES ?o {{ <{NS}o1> }} ?s <{NS}p> ?o"
    ),
    "ordering-filter": f"?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 . FILTER(?y1 < ?y2)",
    "constant-filter": f"?x <{NS}p> ?y1 . FILTER(?y1 != <{NS}o1>)",
    "unbound-filter-var": f"?x <{NS}p> ?y1 . FILTER(?y1 != ?w)",
    "exists-two-patterns": (
        f"?x <{NS}p> ?y1 . FILTER EXISTS {{ ?x <{NS}q> ?y1 . ?x <{NS}p> ?y1 }}"
    ),
    "exists-new-variable": f"?x <{NS}p> ?y1 . FILTER EXISTS {{ ?x <{NS}q> ?w }}",
    "optional": f"VALUES ?s {{ <{NS}s1> }} ?s <{NS}p> ?o OPTIONAL {{ ?s <{NS}q> ?z }}",
}


def _query(projection, where, select="SELECT", modifiers=""):
    return f"{select} {projection} WHERE {{ {where} }}{modifiers}"


def _assert_same_rows(stores, query, engaged):
    for label, store in stores:
        evaluator = QueryEvaluator(store)
        expected = _per_row(evaluator, query)
        actual = evaluator.evaluate(query)
        assert actual.variables == expected.variables, label
        assert actual.rows == expected.rows, (label, query)
        scalar = QueryEvaluator(store, use_vectorized=False).evaluate(query)
        assert actual.rows == scalar.rows, (label, query)
        assert _columnar_finishes(evaluator, query) is engaged, (label, query)


@pytest.fixture(params=[None, 3], ids=["one-block", "tiny-blocks"])
def block_rows(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(kernels, "BLOCK_ROWS", request.param)


@pytest.mark.parametrize("case", sorted(VALUES_CASES))
def test_values_seed_matches_per_row(stores, block_rows, case):
    projection, where = VALUES_CASES[case]
    for select, modifiers in MODIFIERS:
        _assert_same_rows(stores, _query(projection, where, select, modifiers), True)


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_filter_masks_match_per_row(stores, block_rows, case):
    projection, where = FILTER_CASES[case]
    for select, modifiers in MODIFIERS:
        _assert_same_rows(stores, _query(projection, where, select, modifiers), True)


@pytest.mark.parametrize("case", sorted(DECLINED_CASES))
def test_other_shapes_decline(stores, case):
    where = DECLINED_CASES[case]
    for select, modifiers in MODIFIERS[:3]:
        _assert_same_rows(stores, _query("*", where, select, modifiers), False)


def test_literal_rows_keep_value_equality(stores):
    """``"01"`` = ``"1"`` as integers and NaN equals nothing: the columnar
    answer must agree with SPARQL value comparison, not with the IDs."""
    query = _query(
        "?x ?y1 ?y2", f"?x <{NS}p> ?y1 . ?x <{NS}q> ?y2 . FILTER(?y1 = ?y2)"
    )
    for label, store in stores:
        rows = QueryEvaluator(store).evaluate(query).rows
        pairs = {(row.get_term(_var("y1")), row.get_term(_var("y2"))) for row in rows}
        value_equal = (
            Literal("01", datatype=XSD_INTEGER),
            Literal("1", datatype=XSD_INTEGER),
        )
        assert value_equal in pairs, label
        nan = Literal("NaN", datatype=XSD_DOUBLE)
        assert all(nan not in pair for pair in pairs), label


def _var(name):
    from repro.sparql.bindings import Variable

    return Variable(name)


_subjects = st.sampled_from([f"<{NS}s{index}>" for index in (0, 1, 4, 5, 6, 12, 29)] + [f"<{NS}nope>"])
_objects = st.sampled_from(
    [f"<{NS}o{index}>" for index in range(7)] + [f'"01"^^{INT}', f'"1"^^{INT}', f"<{NS}s1>"]
)


@given(
    rows=st.lists(st.tuples(_subjects, _objects), max_size=8),
    both=st.booleans(),
    predicate=st.sampled_from(["?p", f"<{NS}p>", f"<{NS}q>"]),
    distinct=st.booleans(),
    offset=st.integers(min_value=0, max_value=4),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
@settings(max_examples=40, deadline=None)
def test_random_values_blocks_match_per_row(stores, rows, both, predicate, distinct, offset, limit):
    if both:
        body = " ".join(f"({s} {o})" for s, o in rows)
        values = f"VALUES (?s ?o) {{ {body} }}"
    else:
        values = "VALUES ?s { " + " ".join(s for s, _ in rows) + " }"
    where = f"{values} ?s {predicate} ?o"
    modifiers = f" OFFSET {offset}" + ("" if limit is None else f" LIMIT {limit}")
    select = "SELECT DISTINCT" if distinct else "SELECT"
    _assert_same_rows(stores, _query("*", where, select, modifiers), True)


# --------------------------------------------------------------------- #
# Warm index order
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vectorized", [False, None], ids=["per-row", "columnar"])
def test_warm_and_cold_stream_in_id_order(tmp_path, vectorized):
    """Interned ``oZ`` before ``oA`` but inserted ``(p, oA)`` first: the
    warm POS key must still stream ``oZ`` first, like the cold CSR."""
    warm = TripleStore()
    warm.add(Triple(EX.s1, EX.q, EX.oZ))
    warm.add(Triple(EX.s2, EX.p, EX.oA))
    warm.add(Triple(EX.s3, EX.p, EX.oZ))
    warm.save(tmp_path / "store.snap")
    cold = TripleStore.open(tmp_path / "store.snap")
    query = f"SELECT ?s ?o WHERE {{ ?s <{NS}p> ?o }} LIMIT 1"
    for store in (warm, cold):
        rows = QueryEvaluator(store, use_vectorized=vectorized).evaluate(query).rows
        assert [(row.get_term(_var("s")), row.get_term(_var("o"))) for row in rows] == [
            (EX.s3, EX.oZ)
        ]
