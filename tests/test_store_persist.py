"""Snapshot persistence: round-trip, corruption, laziness and mutation.

The contract under test (see :mod:`repro.store.persist`):

* ``save -> open -> save`` is **byte-identical**, for single stores and
  for every file of a sharded snapshot directory;
* flipping a single byte in *any* section (or the header, magic, or
  manifest), and truncating the file, raises a clean
  :class:`~repro.errors.SnapshotCorruptError`;
* a cold-opened store answers the whole bookkeeping API identically to
  the warm store it was saved from, stays lazy under reads, and keeps
  its mutations in the index overlays until the next save folds them.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotCorruptError, StoreError
from repro.kb.knowledge_base import KnowledgeBase
from repro.rdf.namespace import Namespace
from repro.rdf.terms import BlankNode, IRI, Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store import persist
from repro.store.dictionary import (
    TermDictionary,
    decode_term_record,
    encode_term_record,
)
from repro.store.index import PermutationIndex
from repro.store.triplestore import TripleStore

EX = Namespace("http://persist.test/")


def _mixed_triples():
    """A store exercising every term kind (IRIs, blanks, literal shapes)."""
    triples = []
    for index in range(120):
        subject = EX[f"s{index % 24}"]
        triples.append(Triple(subject, EX[f"p{index % 5}"], EX[f"o{index % 17}"]))
        triples.append(
            Triple(subject, EX.label, Literal(f"nomé {index % 9}", language="en"))
        )
        triples.append(Triple(subject, EX.age, Literal(index % 80)))
        triples.append(Triple(BlankNode(f"b{index % 7}"), EX.near, subject))
    triples.append(Triple(EX.plain, EX.label, Literal("plain value")))
    triples.append(
        Triple(EX.typed, EX.label, Literal("2001-02-03", datatype=EX.date.value))
    )
    return triples


@pytest.fixture(scope="module")
def warm_store():
    return TripleStore(name="persist-fixture", triples=_mixed_triples())


@pytest.fixture()
def snapshot_path(tmp_path, warm_store):
    path = tmp_path / "store.snap"
    warm_store.save(path)
    return path


# --------------------------------------------------------------------- #
# Term record codec
# --------------------------------------------------------------------- #
class TestTermRecordCodec:
    TERMS = [
        IRI("http://x.test/a"),
        IRI("http://x.test/ümläut"),
        BlankNode("node7"),
        Literal("plain"),
        Literal(""),
        Literal("hello", language="en-gb"),
        Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        Literal("embédded \x00 byte"),
    ]

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    def test_round_trip(self, term):
        assert decode_term_record(encode_term_record(term)) == term

    def test_encoding_is_injective_across_shapes(self):
        records = [encode_term_record(term) for term in self.TERMS]
        assert len(set(records)) == len(records)
        # The classic trap: a plain literal, a datatyped literal and an
        # IRI with the same string must all encode differently.
        trio = [
            Literal("http://x.test/a"),
            IRI("http://x.test/a"),
            Literal("a", language="en"),
            Literal("a", datatype="http://x.test/en"),
        ]
        assert len({encode_term_record(t) for t in trio}) == len(trio)

    def test_rejects_garbage(self):
        with pytest.raises(StoreError):
            encode_term_record("not a term")
        with pytest.raises(StoreError):
            decode_term_record(b"")
        with pytest.raises(StoreError):
            decode_term_record(b"\x09junk")


# --------------------------------------------------------------------- #
# Byte-identical round trips
# --------------------------------------------------------------------- #
class TestByteIdenticalRoundTrip:
    def test_single_store(self, tmp_path, warm_store, snapshot_path):
        reopened = TripleStore.open(snapshot_path)
        second = tmp_path / "second.snap"
        reopened.save(second)
        assert snapshot_path.read_bytes() == second.read_bytes()

    def test_single_store_without_mmap(self, tmp_path, snapshot_path):
        reopened = TripleStore.open(snapshot_path, mmap=False)
        second = tmp_path / "second.snap"
        reopened.save(second)
        assert snapshot_path.read_bytes() == second.read_bytes()

    def test_resave_after_decoding_everything_is_still_identical(
        self, tmp_path, snapshot_path
    ):
        # Resolve every term and triple without changing the triple set:
        # the written sections must still be the raw ones.
        reopened = TripleStore.open(snapshot_path)
        for term in list(reopened.dictionary.terms()):
            assert reopened.dictionary.id_for(term) is not None
        assert len(list(reopened)) == len(reopened)
        second = tmp_path / "second.snap"
        reopened.save(second)
        assert snapshot_path.read_bytes() == second.read_bytes()

    def test_sharded_directory(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=4, triples=iter(warm_store))
        first = tmp_path / "first"
        sharded.save(first)
        reopened = ShardedTripleStore.open(first)
        second = tmp_path / "second"
        reopened.save(second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @given(
        st.lists(
            st.builds(
                Triple,
                st.sampled_from([EX[f"n{i}"] for i in range(8)]),
                st.sampled_from([EX[f"q{i}"] for i in range(4)]),
                st.one_of(
                    st.sampled_from([EX[f"n{i}"] for i in range(8)]),
                    st.integers(0, 50).map(Literal),
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip(self, tmp_path_factory, triples):
        tmp = tmp_path_factory.mktemp("prop")
        store = TripleStore(triples=triples)
        first, second = tmp / "a.snap", tmp / "b.snap"
        store.save(first)
        reopened = TripleStore.open(first)
        assert set(reopened) == set(store)
        assert len(reopened) == len(store)
        reopened.save(second)
        assert first.read_bytes() == second.read_bytes()


# --------------------------------------------------------------------- #
# Corruption handling
# --------------------------------------------------------------------- #
def _section_spans(raw: bytes):
    """Absolute ``tag -> (start, length)`` spans from a snapshot's header."""
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    base = 16 + header_len
    base += (-base) % 8
    return {
        tag: (base + offset, length)
        for tag, (offset, length, _crc) in header["sections"].items()
    }


def _flip_byte(raw: bytes, position: int) -> bytes:
    corrupted = bytearray(raw)
    corrupted[position] ^= 0x5A
    return bytes(corrupted)


class TestCorruption:
    def test_every_section_independently_corrupted(self, tmp_path, snapshot_path):
        raw = snapshot_path.read_bytes()
        spans = _section_spans(raw)
        # The fixture store interns all three term kinds and fills all
        # three index orders, so every section must be non-empty.
        assert all(length > 0 for _, length in spans.values())
        for tag, (start, length) in spans.items():
            target = tmp_path / "corrupt.snap"
            target.write_bytes(_flip_byte(raw, start + length // 2))
            with pytest.raises(SnapshotCorruptError):
                TripleStore.open(target)
            # mmap=False takes the bytes path; same detection.
            with pytest.raises(SnapshotCorruptError):
                TripleStore.open(target, mmap=False)

    def test_header_and_magic_corruption(self, tmp_path, snapshot_path):
        raw = snapshot_path.read_bytes()
        target = tmp_path / "corrupt.snap"
        for position in (0, 9, 20):  # magic, declared length, header body
            target.write_bytes(_flip_byte(raw, position))
            with pytest.raises(SnapshotCorruptError):
                TripleStore.open(target)

    def test_truncation(self, tmp_path, snapshot_path):
        raw = snapshot_path.read_bytes()
        target = tmp_path / "truncated.snap"
        for keep in (0, 7, 15, len(raw) // 2, len(raw) - 3):
            target.write_bytes(raw[:keep])
            with pytest.raises(SnapshotCorruptError):
                TripleStore.open(target)

    def test_wrong_version_and_kind(self, tmp_path, warm_store):
        path = tmp_path / "v.snap"
        persist.write_container(
            path, kind="store", name="v", sections=[], triples=0, terms=0
        )
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[16 : 16 + header_len])
        header["version"] = 99
        body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        import zlib

        rebuilt = (
            raw[:8]
            + len(body).to_bytes(4, "little")
            + zlib.crc32(body).to_bytes(4, "little")
            + body
        )
        target = tmp_path / "v99.snap"
        target.write_bytes(rebuilt)
        with pytest.raises(SnapshotCorruptError):
            TripleStore.open(target)
        # A dictionary-only container is not openable as a store.
        dict_only = tmp_path / "dict.snap"
        persist.write_container(
            dict_only,
            kind="dictionary",
            name="d",
            sections=persist.dictionary_sections(warm_store.dictionary),
            triples=0,
            terms=len(warm_store.dictionary),
        )
        with pytest.raises(SnapshotCorruptError):
            TripleStore.open(dict_only)

    def test_verify_false_skips_checksums_not_structure(
        self, tmp_path, snapshot_path
    ):
        raw = snapshot_path.read_bytes()
        spans = _section_spans(raw)
        start, length = spans["spo/thirds"]
        target = tmp_path / "corrupt.snap"
        target.write_bytes(_flip_byte(raw, start + 8 * (length // 16)))
        # Same length, different int64 values: checksum off -> opens.
        store = TripleStore.open(target, verify=False)
        assert len(store) > 0
        # Structural damage (truncation) still raises without verify.
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptError):
            TripleStore.open(target, verify=False)

    def test_sharded_manifest_corruption(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=2, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        manifest = directory / "manifest.json"
        body = json.loads(manifest.read_text())
        body["boundaries"] = [0]  # tamper without fixing the checksum
        manifest.write_text(json.dumps(body, sort_keys=True, indent=2))
        with pytest.raises(SnapshotCorruptError):
            ShardedTripleStore.open(directory)
        manifest.write_text("{not json")
        with pytest.raises(SnapshotCorruptError):
            ShardedTripleStore.open(directory)

    def test_sharded_section_corruption(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=2, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        snap_files = sorted(p for p in directory.iterdir() if p.suffix == ".snap")
        assert len(snap_files) == 3  # dictionary + two shards
        for path in snap_files:
            raw = path.read_bytes()
            spans = _section_spans(raw)
            tag, (start, length) = next(iter(spans.items()))
            path.write_bytes(_flip_byte(raw, start + length // 2))
            with pytest.raises(SnapshotCorruptError):
                ShardedTripleStore.open(directory)
            path.write_bytes(raw)  # restore for the next file
        # sanity: restored directory opens again
        assert len(ShardedTripleStore.open(directory)) == len(sharded)


# --------------------------------------------------------------------- #
# Laziness, equivalence and mutation
# --------------------------------------------------------------------- #
class TestColdStoreSemantics:
    def test_reads_stay_lazy(self, snapshot_path, warm_store):
        cold = TripleStore.open(snapshot_path)
        assert cold.is_frozen
        probe = next(iter(warm_store))
        assert probe in cold
        pid = cold.term_id(EX.age)
        assert pid is not None
        assert cold.count_ids(None, pid, None) == warm_store.count_ids(
            None, warm_store.term_id(EX.age), None
        )
        # Membership, counts and term lookups must not write anything.
        assert cold.is_frozen
        assert cold.dictionary.interned == 0

    def test_bookkeeping_equivalence(self, snapshot_path, warm_store):
        cold = TripleStore.open(snapshot_path)
        dictionary = warm_store.dictionary
        for term in list(dictionary.terms()):
            assert cold.term_id(term) == warm_store.term_id(term)
        for shape in [
            (None, None, None),
            (warm_store.term_id(EX.s1), None, None),
            (None, warm_store.term_id(EX.p1), None),
            (None, None, warm_store.term_id(EX.o1)),
            (warm_store.term_id(EX.s1), warm_store.term_id(EX.p1), None),
            (None, warm_store.term_id(EX.p1), warm_store.term_id(EX.o1)),
        ]:
            assert cold.count_ids(*shape) == warm_store.count_ids(*shape)
            assert sorted(cold.match_ids(*shape)) == sorted(
                warm_store.match_ids(*shape)
            )
        for position in "spo":
            assert cold.count_distinct_ids(position) == warm_store.count_distinct_ids(
                position
            )
        run_args = (warm_store.term_id(EX.s1), warm_store.term_id(EX.p1), None)
        assert list(cold.sorted_run_ids(*run_args)) == list(
            warm_store.sorted_run_ids(*run_args)
        )
        assert sorted(t.value for t in cold.predicates()) == sorted(
            t.value for t in warm_store.predicates()
        )
        assert cold.entities() == warm_store.entities()

    def test_frozen_index_matches_writable(self, snapshot_path, warm_store):
        # The same entries held by an index's overlay alone and by a CSR
        # base (a reopened snapshot) answer every read alike.
        base = TripleStore.open(snapshot_path)._spo
        overlay = PermutationIndex()
        for entry in base.triples():
            assert overlay.add(*entry)
        assert overlay.pending == len(base) and not base.pending
        assert len(overlay) == len(base)
        assert list(overlay.keys()) == list(base.keys())
        assert overlay.key_count() == base.key_count()
        for key in base.keys():
            assert overlay.count_for_key(key) == base.count_for_key(key)
            assert overlay.second_count_for_key(key) == base.second_count_for_key(key)
            assert overlay.distinct_third_count(key) == base.distinct_third_count(key)
            assert list(overlay.seconds(key)) == list(base.seconds(key))
            assert list(overlay.pairs(key)) == list(base.pairs(key))
            for second in base.seconds(key):
                assert overlay.third_count(key, second) == base.third_count(
                    key, second
                )
                assert list(overlay.sorted_thirds(key, second)) == list(
                    base.sorted_thirds(key, second)
                )
        assert list(overlay.triples()) == list(base.triples())
        assert not base.has_key(-1)
        assert base.count_for_key(-1) == 0
        assert base.third_count(-1, 0) == 0
        assert list(base.thirds(-1, 0)) == []
        assert base.sorted_thirds(-1, 0) == ()

    def test_fold_round_trips(self, warm_store):
        store = TripleStore(triples=iter(warm_store))
        assert not store.is_frozen  # small enough to stay in the overlays
        before = [list(index.triples()) for index in (store._spo, store._pos, store._osp)]
        counts = {key: store._pos.count_for_key(key) for key in store._pos.keys()}
        version = store.data_version
        store._fold()
        assert store.is_frozen
        assert store.data_version == version
        after = [list(index.triples()) for index in (store._spo, store._pos, store._osp)]
        assert after == before
        for key, count in counts.items():
            assert store._pos.count_for_key(key) == count

    def test_mutation_stays_correct(self, snapshot_path, warm_store):
        cold = TripleStore.open(snapshot_path)
        fresh = Triple(EX.fresh_subject, EX.p0, Literal("fresh"))
        assert cold.add(fresh)
        assert not cold.is_frozen
        assert cold.data_version == 1
        assert fresh in cold
        assert len(cold) == len(warm_store) + 1
        victim = next(iter(warm_store))
        assert cold.remove(victim)
        assert victim not in cold
        assert len(cold) == len(warm_store)
        # The two unknown terms got fresh IDs past the snapshot's; known
        # terms kept their snapshot IDs.
        assert cold.dictionary.interned == 2
        for term in list(warm_store.dictionary.terms()):
            assert cold.term_id(term) == warm_store.term_id(term)

    def test_bulk_load_on_cold_store(self, snapshot_path):
        cold = TripleStore.open(snapshot_path)
        before = len(cold)
        inserted = cold.bulk_load(
            [Triple(EX[f"bulk{i}"], EX.p0, EX.o0) for i in range(10)]
        )
        assert inserted == 10
        assert len(cold) == before + 10
        assert not cold.is_frozen

    def test_noop_bulk_load_stays_frozen(self, snapshot_path, warm_store):
        # An empty or all-duplicate batch stages and dedupes but inserts
        # nothing: the frozen columns must survive untouched.
        cold = TripleStore.open(snapshot_path)
        assert cold.bulk_load([]) == 0
        assert cold.is_frozen
        assert cold.bulk_load(list(warm_store)[:5]) == 0
        assert cold.is_frozen

    def test_sharded_resave_is_incremental(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=2, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        gen1 = {p.name for p in directory.iterdir()}
        assert any("-g1.snap" in name for name in gen1)
        # A clean resave writes nothing at all: same files, same manifest.
        manifest_bytes = (directory / "manifest.json").read_bytes()
        sharded.save(directory)
        assert {p.name for p in directory.iterdir()} == gen1
        assert (directory / "manifest.json").read_bytes() == manifest_bytes
        # A dirty resave rewrites only the touched shard at the next
        # generation; untouched shards keep their old-generation files.
        sharded.add(Triple(EX.roll, EX.p0, EX.o0))
        sharded.save(directory)
        gen2 = {p.name for p in directory.iterdir()}
        assert any("-g2.snap" in name for name in gen2)
        assert any("-g1.snap" in name for name in gen2)
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(sharded)

    def test_sharded_crashed_save_leaves_old_snapshot_openable(
        self, tmp_path, warm_store
    ):
        # Simulate a crash mid-resave: a newer-generation payload file
        # exists but the manifest was never replaced.  The old manifest
        # must keep resolving to the old generation's intact files.
        sharded = ShardedTripleStore(num_shards=2, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        partial = directory / "shard0-g2.snap"
        partial.write_bytes(b"half-written garbage from a crashed save")
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(sharded)
        # The next save that actually writes claims generation 3 (never
        # reusing the crashed generation's names) and sweeps the debris.
        sharded.add(Triple(EX.after_crash, EX.p0, EX.o0))
        sharded.save(directory)
        names = {p.name for p in directory.iterdir()}
        assert not any("-g2.snap" in name for name in names)
        assert any("-g3.snap" in name for name in names)
        assert len(ShardedTripleStore.open(directory)) == len(sharded)

    def test_empty_store_name_round_trips(self, tmp_path):
        store = TripleStore(name="", triples=[Triple(EX.a, EX.b, EX.c)])
        first, second = tmp_path / "a.snap", tmp_path / "b.snap"
        store.save(first)
        reopened = TripleStore.open(first)
        assert reopened.name == ""
        reopened.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_add_and_absent_remove_stay_frozen(
        self, snapshot_path, warm_store
    ):
        cold = TripleStore.open(snapshot_path)
        duplicate = next(iter(warm_store))
        assert cold.add(duplicate) is False
        assert cold.remove(Triple(EX.not_there, EX.p0, EX.o0)) is False
        assert cold.is_frozen
        assert cold.data_version == 0

    def test_resave_over_open_snapshot_is_safe(self, tmp_path):
        # Atomic replace: saving over a path another store has mmap'd
        # must neither corrupt the open store nor the file.
        path = tmp_path / "shared.snap"
        first = TripleStore(triples=[Triple(EX.a, EX.b, EX.c)])
        first.save(path)
        cold = TripleStore.open(path)
        second = TripleStore(
            triples=[Triple(EX[f"x{i}"], EX.b, EX.c) for i in range(50)]
        )
        second.save(path)
        # The already-open store still reads its original inode...
        assert len(cold) == 1
        assert Triple(EX.a, EX.b, EX.c) in cold
        # ...and a fresh open sees the replacement, fully valid.
        assert len(TripleStore.open(path)) == 50
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_on_cold_store(self, snapshot_path):
        cold = TripleStore.open(snapshot_path)
        cold.clear()
        assert len(cold) == 0
        assert cold.count() == 0
        assert list(iter(cold)) == []
        assert cold.add(Triple(EX.a, EX.b, EX.c))
        assert len(cold) == 1

    def test_lazy_dictionary_decode_and_lookup(self, snapshot_path, warm_store):
        cold = TripleStore.open(snapshot_path)
        dictionary = cold.dictionary
        assert isinstance(dictionary, TermDictionary)
        assert len(dictionary) == len(warm_store.dictionary)
        # Unknown probes answer None without interning.
        assert dictionary.id_for(EX.never_seen) is None
        assert EX.never_seen not in dictionary
        some = list(warm_store.dictionary.terms())[:10]
        for term in some:
            tid = dictionary.id_for(term)
            assert tid == warm_store.dictionary.id_for(term)
            assert dictionary.decode(tid) == term
            assert dictionary.kind(tid) == warm_store.dictionary.kind(tid)
        assert dictionary.interned == 0
        with pytest.raises(StoreError):
            dictionary.decode(len(dictionary) + 5)
        # Non-Term probes answer None, exactly like the warm dict.get.
        assert dictionary.id_for("not a term") is None
        assert warm_store.dictionary.id_for("not a term") is None
        assert "not a term" not in dictionary

    def test_shared_kind_queries(self, snapshot_path, warm_store):
        cold = TripleStore.open(snapshot_path)
        warm_dict = warm_store.dictionary
        for tid in range(len(warm_dict)):
            assert cold.dictionary.is_literal_id(tid) == warm_dict.is_literal_id(tid)


class TestShardedColdStore:
    def test_topology_and_content(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=4, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        cold = ShardedTripleStore.open(directory)
        assert cold.num_shards == 4
        assert cold.boundaries == sharded.boundaries
        assert cold.shard_sizes() == sharded.shard_sizes()
        assert set(cold) == set(sharded)
        assert len(cold.dictionary) == len(sharded.dictionary)
        # All shards share the one dictionary instance.
        assert all(shard.dictionary is cold.dictionary for shard in cold.shards)

    def test_mutation_after_reopen(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=2, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        cold = ShardedTripleStore.open(directory)
        fresh = Triple(EX.late_arrival, EX.p0, EX.o0)
        assert cold.add(fresh)
        assert fresh in cold
        assert len(cold) == len(sharded) + 1
        # New subject ID exceeds every frozen boundary: it must have been
        # routed to the last shard.
        assert cold.shard_sizes()[-1] == sharded.shard_sizes()[-1] + 1

    def test_single_shard_store(self, tmp_path):
        sharded = ShardedTripleStore(
            num_shards=1, triples=[Triple(EX.a, EX.b, EX.c)]
        )
        directory = tmp_path / "one"
        sharded.save(directory)
        cold = ShardedTripleStore.open(directory)
        assert len(cold) == 1 and cold.num_shards == 1

    def test_bulk_load_leaves_untouched_shards_frozen(self, tmp_path, warm_store):
        sharded = ShardedTripleStore(num_shards=4, triples=iter(warm_store))
        directory = tmp_path / "shd"
        sharded.save(directory)
        cold = ShardedTripleStore.open(directory)
        # One new-subject triple routes to the last shard: only that
        # shard may gain overlay entries; the others must stay frozen
        # snapshot views.
        inserted = cold.bulk_load([Triple(EX.very_late, EX.p0, EX.o0)])
        assert inserted == 1
        assert not cold.shards[-1].is_frozen
        assert all(shard.is_frozen for shard in cold.shards[:-1])

    def test_skew_threshold_survives_round_trip(self, tmp_path):
        sharded = ShardedTripleStore(
            num_shards=2,
            triples=[Triple(EX[f"s{i}"], EX.p, EX.o) for i in range(8)],
            skew_threshold=9.0,
        )
        directory = tmp_path / "shd"
        sharded.save(directory)
        assert ShardedTripleStore.open(directory).skew_threshold == 9.0


class TestEmptyAndKnowledgeBase:
    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "empty.snap"
        TripleStore(name="empty").save(path)
        cold = TripleStore.open(path)
        assert len(cold) == 0
        assert cold.count() == 0
        assert list(cold.match()) == []
        second = tmp_path / "empty2.snap"
        cold.save(second)
        assert path.read_bytes() == second.read_bytes()

    def test_knowledge_base_round_trip(self, tmp_path):
        kb = KnowledgeBase("persistkb", EX)
        kb.add_triples(_mixed_triples())
        directory = tmp_path / "kb"
        kb.save(directory)
        reopened = KnowledgeBase.open(directory)
        assert reopened.name == kb.name
        assert reopened.namespace == kb.namespace
        assert len(reopened) == len(kb)
        assert sorted(i.iri.value for i in reopened.relations()) == sorted(
            i.iri.value for i in kb.relations()
        )
        # A cold KB serves queries through its endpoint immediately.
        client_result = reopened.endpoint().select(
            "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://persist.test/age> ?o }"
        )
        expected = kb.store.count(predicate=EX.age)
        counted = client_result.rows[0].get_term(client_result.variables[0])
        assert counted.to_python() == expected

    def test_sharded_knowledge_base_round_trip(self, tmp_path):
        store = ShardedTripleStore(num_shards=3, triples=_mixed_triples())
        kb = KnowledgeBase("shardkb", EX, store=store)
        directory = tmp_path / "kb"
        kb.save(directory)
        reopened = KnowledgeBase.open(directory)
        assert isinstance(reopened.store, ShardedTripleStore)
        assert reopened.store.num_shards == 3
        assert len(reopened) == len(kb)

    def test_kb_metadata_corruption(self, tmp_path):
        kb = KnowledgeBase("persistkb", EX)
        kb.add_fact(EX.a, EX.b, EX.c)
        directory = tmp_path / "kb"
        kb.save(directory)
        (directory / "kb.json").write_text("][")
        with pytest.raises(SnapshotCorruptError):
            KnowledgeBase.open(directory)
        # Valid JSON missing required keys is corruption too, not KeyError.
        (directory / "kb.json").write_text(
            json.dumps({"format": "repro-kb", "version": 1})
        )
        with pytest.raises(SnapshotCorruptError):
            KnowledgeBase.open(directory)
