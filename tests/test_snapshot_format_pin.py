"""Pin the snapshot bytes: the on-disk format must not drift.

The digests below are the sha256 of what the writer produces for one
fixed small triple set in four cases: a built store, its unmutated cold
reopen, that cold reopen after adds and removes, and a 2-shard
directory carrying a dictionary delta chain.  Any change to the term
records, the dictionary lookup order, the CSR columns, the container
header or the manifest shows up here; snapshots already on disk must
keep reopening, so such a change needs a format version bump instead.
"""

import hashlib

from repro.rdf.namespace import Namespace
from repro.rdf.terms import BlankNode, Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store.triplestore import TripleStore

EX = Namespace("http://pin.test/")

BUILT = "c898b767fe32afaebd7a0f64084c344e32c2a17ede0a46d8f05bc2abb84308d2"
REOPENED = BUILT
MUTATED = "3a31ff980354eca5ece381cd7e35df3eec2afcd724177f2a61e93823b1f5cf7a"
SHARDED = "7c42c9f21b578d3f2a1d14ed1aaefe618f6d5bcf09481744e8a4e112a53ef86d"


def _triples():
    triples = []
    for index in range(40):
        subject = EX[f"s{index % 11}"]
        triples.append(Triple(subject, EX[f"p{index % 3}"], EX[f"o{index % 7}"]))
        triples.append(Triple(subject, EX.label, Literal(f"nom {index % 5}", language="fr")))
        triples.append(Triple(subject, EX.size, Literal(index % 13)))
        triples.append(Triple(BlankNode(f"b{index % 4}"), EX.near, subject))
    triples.append(Triple(EX.typed, EX.label, Literal("2001-02-03", datatype=EX.date.value)))
    return triples


def _extra(start):
    return [
        Triple(EX[f"new{start + index}"], EX.p0, Literal(f"v{index}"))
        for index in range(6)
    ]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _directory_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_built_store_bytes(tmp_path):
    path = tmp_path / "built.snap"
    TripleStore(name="pin", triples=_triples()).save(path)
    assert _digest(path) == BUILT


def test_cold_reopen_bytes(tmp_path):
    built = tmp_path / "built.snap"
    TripleStore(name="pin", triples=_triples()).save(built)
    again = tmp_path / "again.snap"
    TripleStore.open(built).save(again)
    assert _digest(again) == REOPENED


def test_mutated_cold_reopen_bytes(tmp_path):
    built = tmp_path / "built.snap"
    TripleStore(name="pin", triples=_triples()).save(built)
    cold = TripleStore.open(built)
    for triple in _extra(0):
        assert cold.add(triple)
    for triple in _triples()[::9]:
        assert cold.remove(triple)
    mutated = tmp_path / "mutated.snap"
    cold.save(mutated)
    assert _digest(mutated) == MUTATED
    assert set(TripleStore.open(mutated)) == set(cold)


def test_sharded_delta_chain_bytes(tmp_path):
    directory = tmp_path / "sharded"
    store = ShardedTripleStore(name="pin", num_shards=2, triples=_triples())
    store.save(directory)
    store.bulk_load(_extra(0))
    assert store.save_delta(directory)
    store.bulk_load(_extra(100))
    assert store.save_delta(directory)
    assert _directory_digest(directory) == SHARDED
    assert set(ShardedTripleStore.open(directory)) == set(store)
