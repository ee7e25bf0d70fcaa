"""The evaluation suite run against cold-opened snapshot fixtures.

CI satellite: every representative query shape the engine supports runs
against the *same* preset world served four ways — the warm in-memory
store, a snapshot reopened via mmap, a snapshot loaded without mmap, and
a sharded snapshot reopened through the scatter/gather evaluator — and
must agree with the warm reference on all of them.  This is the
"run the suite on a cold-opened snapshot fixture in addition to the
in-memory path" gate: any read path that silently assumes the writable
representation breaks here first.
"""

from collections import Counter

import pytest

from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore
from repro.synthetic.generator import generate_world
from repro.synthetic.presets import music_world_spec

REPRESENTATIONS = ("warm", "cold-mmap", "cold-bytes", "cold-sharded4")


@pytest.fixture(scope="module")
def world_kb():
    return generate_world(music_world_spec()).kb("musicbrainz")


@pytest.fixture(scope="module")
def evaluators(world_kb, tmp_path_factory):
    """One evaluator per representation over the same preset KB."""
    tmp = tmp_path_factory.mktemp("cold-suite")
    warm = world_kb.store
    warm.save(tmp / "world.snap")
    ShardedTripleStore(num_shards=4, triples=iter(warm)).save(tmp / "sharded")
    return {
        "warm": QueryEvaluator(warm),
        "cold-mmap": QueryEvaluator(TripleStore.open(tmp / "world.snap")),
        "cold-bytes": QueryEvaluator(TripleStore.open(tmp / "world.snap", mmap=False)),
        "cold-sharded4": ShardedQueryEvaluator(
            ShardedTripleStore.open(tmp / "sharded")
        ),
    }


def _battery(kb):
    """Representative query texts over whatever the preset actually holds."""
    relations = sorted(kb.relations(), key=lambda info: -info.fact_count)
    top = relations[0].iri.value
    second = relations[1].iri.value if len(relations) > 1 else top
    subject = next(iter(kb.store.subjects())).value
    queries = [
        f"SELECT ?s ?o WHERE {{ ?s <{top}> ?o }}",
        f"SELECT ?s ?o ?w WHERE {{ ?s <{top}> ?o . ?s <{second}> ?w }}",
        f"SELECT DISTINCT ?s WHERE {{ ?s <{top}> ?o }}",
        f"SELECT ?p ?o WHERE {{ <{subject}> ?p ?o }}",
        f"SELECT ?s WHERE {{ ?s <{top}> ?o }} LIMIT 5",
        f"SELECT ?s WHERE {{ ?s <{top}> ?o }} OFFSET 2 LIMIT 3",
        f"ASK {{ <{subject}> ?p ?o }}",
        f"ASK {{ <{subject}> <{top}> <{subject}> }}",
        f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{top}> ?o }}",
        f"SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE {{ ?s <{top}> ?o }}",
        f"SELECT ?s ?n WHERE {{ ?s <{top}> ?o OPTIONAL {{ ?s <{second}> ?n }} }}",
        f"SELECT ?s WHERE {{ {{ ?s <{top}> ?o }} UNION {{ ?s <{second}> ?o }} }}",
        f"SELECT ?s ?o WHERE {{ VALUES ?s {{ <{subject}> }} ?s <{top}> ?o }}",
    ]
    return queries


def _multiset(result):
    if isinstance(result, AskResult):
        return bool(result)
    return Counter(frozenset(row.items()) for row in result)


@pytest.mark.parametrize("representation", [r for r in REPRESENTATIONS if r != "warm"])
def test_battery_matches_warm_reference(representation, evaluators, world_kb):
    reference = evaluators["warm"]
    candidate = evaluators[representation]
    for query_text in _battery(world_kb):
        parsed = parse_query(query_text)
        expected = _multiset(reference.evaluate(parsed))
        actual = _multiset(candidate.evaluate(parsed))
        if " LIMIT " in query_text or query_text.endswith("LIMIT 5"):
            # Page contents may differ between representations; size and
            # membership in the full result set must not.
            full = _multiset(
                reference.evaluate(parse_query(query_text.split(" OFFSET ")[0].split(" LIMIT ")[0]))
            )
            assert sum(actual.values()) == sum(expected.values()), query_text
            for row, count in actual.items():
                assert full[row] >= count, query_text
        else:
            assert actual == expected, (representation, query_text)


def test_cold_stores_stay_frozen_after_the_battery(evaluators):
    # The whole battery is read-only: no representation may have taken
    # overlay entries or interned a term.
    assert evaluators["cold-mmap"].store.is_frozen
    assert evaluators["cold-bytes"].store.is_frozen
    for shard in evaluators["cold-sharded4"].store.shards:
        assert shard.is_frozen
    for name in ("cold-mmap", "cold-bytes", "cold-sharded4"):
        assert evaluators[name].store.dictionary.interned == 0


def test_relation_catalogue_matches_on_cold_kb(world_kb, tmp_path):
    from repro.kb.knowledge_base import KnowledgeBase

    directory = tmp_path / "kb"
    world_kb.save(directory)
    cold_kb = KnowledgeBase.open(directory)
    warm_catalogue = {
        info.iri.value: (info.kind, info.fact_count)
        for info in world_kb.relations()
    }
    cold_catalogue = {
        info.iri.value: (info.kind, info.fact_count)
        for info in cold_kb.relations()
    }
    assert cold_catalogue == warm_catalogue
